"""Distributed campaign execution: a coordinator dispatching trials to workers.

The campaign layer's trials are deterministic, independent and identified by
``(name, seed, params)`` — exactly the properties that make distribution
safe.  This module adds the last tier of the ROADMAP's "as fast as the
hardware allows" goal: more than one box.

Two halves:

* :class:`WorkerAgent` — a deliberately *dumb* stdlib-HTTP service.  It
  accepts one trial at a time (``POST /run``: a pickled trial spec plus the
  coordinator's config fingerprint), runs it through the exact same
  :func:`~repro.campaign.executors.execute_trial` path a local executor
  uses, and streams back the :class:`~repro.campaign.results.TrialRecord`
  (plus the full result and any spilled artifacts).  It holds no campaign
  state: all scheduling, retrying and persistence intelligence lives in the
  coordinator, so a worker that crashes loses nothing but its in-flight
  trial.
* :class:`DistributedExecutor` — the coordinator.  It streams
  :func:`~repro.campaign.scheduling.plan_trials`' longest-first order over
  the live workers from one shared work queue, and real fault handling
  keeps the campaign running — a per-trial deadline, exponential-backoff
  retries for transient errors, health probes, loss detection that hands a
  dead worker's trial to the survivors, and graceful degradation to local
  execution when no worker is reachable at all.

Because every trial is a pure function of its config and seed, a retry (on
the same worker, another worker, or locally) is idempotent, and the final
records are byte-identical to a :class:`~repro.campaign.executors.SerialExecutor`
run — ``tests/test_distributed.py`` asserts this for every fault path.

**Trust model**: the transport is pickle-over-HTTP between peers running the
same repro checkout.  A worker will execute whatever a coordinator sends it,
so bind agents to loopback or a private network you trust.  An agent
refuses a non-loopback bind without ``token=``, the shared secret every
request must carry.  See ``docs/distributed.md`` for the operator guide.
"""

from __future__ import annotations

import hmac
import http.client
import ipaddress
import json
import logging
import os
import pickle
import queue
import socket
import threading
import time
import urllib.parse
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.sim.engine import ENGINE_BACKEND

from .core import _config_fingerprint
from .executors import Executor, OnDone, Pair, execute_trial, run_local, slot_budget
from .results import CampaignError, TrialRecord
from .scheduling import ExecutionPlan, plan_trials

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Trial

#: Wire-format version; a worker rejects payloads from a different major
#: version so silent coordinator/worker skew cannot corrupt a campaign.
PROTOCOL_VERSION = 1

#: Default per-trial deadline (seconds) on a worker.
DEFAULT_TRIAL_TIMEOUT_S = 300.0

log = logging.getLogger("repro.campaign")


class DistributedError(CampaignError):
    """Distributed execution could not complete (and local fallback was off)."""


class WorkerUnavailable(Exception):
    """Internal: this worker is dead for the rest of the campaign.

    Raised by :meth:`WorkerClient.run_trial` when the worker cannot be
    trusted to finish work anymore (connection refused and the health probe
    fails too, or a trial overran its deadline).  The dispatch loop reacts
    by requeueing the in-flight trial for the surviving workers.
    """


# ---------------------------------------------------------------------------
# Worker agent (server side)
# ---------------------------------------------------------------------------

#: Serializes trial execution within one process.  A real deployment runs one
#: agent per process, but tests and the docs examples start several agents
#: in-process; the simulator keeps a little process-global state (the flow-id
#: counter), so two trials must never simulate concurrently in one process.
_EXECUTION_LOCK = threading.Lock()


def pack_artifact_dirs(record: TrialRecord) -> Dict[str, Dict[str, bytes]]:
    """Read a record's artifact directories into ``{kind: {relpath: bytes}}``.

    This is how a worker ships spilled results (``results_dir`` runs) back to
    the coordinator: the files, not the path — the path is only meaningful on
    the worker's filesystem.
    """
    from repro.results import pack_dir

    return {
        kind: pack_dir(path)
        for kind, path in record.artifacts.items()
        if os.path.isdir(path)
    }


def unpack_artifact_dirs(
    record: TrialRecord, payload: Dict[str, Dict[str, bytes]]
) -> None:
    """Materialize shipped artifact files at the record's local paths.

    The worker ran with the coordinator's config, so the artifact paths in
    the record are the same paths a local run would have used; writing the
    shipped bytes there makes a remote run indistinguishable from a local
    one (a worker sharing the coordinator's filesystem simply rewrites
    identical bytes).
    """
    from repro.results import unpack_dir

    for kind, files in payload.items():
        path = record.artifacts.get(kind)
        if path:
            unpack_dir(path, files)


class _WorkerState:
    """Mutable status shared between the HTTP handlers and /health."""

    def __init__(self) -> None:
        self.running: Optional[str] = None
        self.completed = 0
        self.failed = 0
        self.lock = threading.Lock()


class _WorkerHandler(BaseHTTPRequestHandler):
    """HTTP handler bound to one :class:`WorkerAgent` via ``server.agent``."""

    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; a campaign makes
    # hundreds of requests and the agent's own prints are the useful signal.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def agent(self) -> "WorkerAgent":
        return self.server.agent  # type: ignore[attr-defined]

    def _deny(self, code: int, message: str) -> None:
        body = message.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _authorized(self) -> bool:
        token = self.agent.token
        if token is None:
            return True
        supplied = self.headers.get("X-Repro-Token")
        # Constant-time compare, on bytes so a non-ASCII header is a plain
        # mismatch rather than a TypeError.
        if supplied is not None and hmac.compare_digest(supplied.encode(), token.encode()):
            return True
        self._deny(403, "bad or missing X-Repro-Token")
        return False

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if urllib.parse.urlparse(self.path).path != "/health":
            self._deny(404, "unknown path (try /health)")
            return
        state = self.agent.state
        with state.lock:
            payload = {
                "kind": "repro.worker",
                "protocol": PROTOCOL_VERSION,
                "pid": os.getpid(),
                "engine_backend": ENGINE_BACKEND,
                "running": state.running,
                "completed": state.completed,
                "failed": state.failed,
            }
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path = urllib.parse.urlparse(self.path).path
        if not self._authorized():
            return
        if path == "/shutdown":
            self._deny(200, "shutting down")
            # shutdown() must not run in the handler thread (it joins the
            # serve loop, which is waiting for this handler to return).
            threading.Thread(target=self.agent.stop, daemon=True).start()
            return
        if path != "/run":
            self._deny(404, "unknown path (try /run)")
            return
        length = int(self.headers.get("Content-Length", "0"))
        try:
            request = pickle.loads(self.rfile.read(length))
        except Exception as exc:
            self._deny(400, f"undecodable /run payload: {exc}")
            return
        if request.get("protocol") != PROTOCOL_VERSION:
            self._deny(
                409,
                f"protocol mismatch: worker speaks {PROTOCOL_VERSION}, "
                f"coordinator sent {request.get('protocol')!r}",
            )
            return
        trial = request["trial"]
        claimed = request.get("fingerprint")
        actual = _config_fingerprint(trial.config)
        if claimed != actual:
            # Version skew: the coordinator's pickle deserialized into a
            # config that no longer fingerprints the same way here (field
            # drift between checkouts).  Running it would silently produce
            # records from a *different* experiment.
            self._deny(
                409,
                f"config fingerprint mismatch for {trial.name!r}: "
                f"coordinator {claimed}, worker {actual} — version skew?",
            )
            return
        state = self.agent.state
        with _EXECUTION_LOCK:
            with state.lock:
                state.running = trial.name
            try:
                record, result = execute_trial(
                    trial, slot_budget=request.get("slot_budget")
                )
                response = {
                    "record": record,
                    "result": None if request.get("records_only") else result,
                    "artifacts": pack_artifact_dirs(record),
                }
                body = pickle.dumps(response, protocol=pickle.HIGHEST_PROTOCOL)
                status = 200
            except Exception as exc:  # simulator bug or bad config
                body = pickle.dumps(
                    {"error": f"{type(exc).__name__}: {exc}"},
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                status = 500
            finally:
                with state.lock:
                    state.running = None
                    if status == 200:
                        state.completed += 1
                    else:
                        state.failed += 1
        self.send_response(status)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def _is_loopback(host: str) -> bool:
    """Whether binding ``host`` serves only this machine."""
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:  # a hostname other than localhost, or "" (every interface)
        return False


class WorkerAgent:
    """A dumb trial-running HTTP service (the remote half of distribution).

    Endpoints:

    * ``GET /health`` — JSON status: pid, ``engine_backend``, the trial
      currently running (if any), completed/failed counts.  This is the
      coordinator's liveness probe.
    * ``POST /run`` — pickled ``{trial, fingerprint, slot_budget,
      records_only, protocol}``; the agent verifies the protocol version and
      the config fingerprint (version-skew guard), runs the trial through
      :func:`~repro.campaign.executors.execute_trial`, and replies with a
      pickled ``{record, result, artifacts}`` (artifacts = the spilled
      ``results_dir`` files, shipped as bytes).
    * ``POST /shutdown`` — stop serving (used by tests and orchestration).

    The agent executes one trial at a time (health probes still answer while
    a trial runs, thanks to the threading server) and keeps no state between
    trials, so killing an agent at any instant loses at most the trial it
    was running — which the coordinator re-dispatches elsewhere.

    Use :meth:`start` for a background (in-thread) agent — handy in tests
    and docs — or :meth:`serve_forever` to block, as ``repro worker serve``
    does.  ``port=0`` binds an ephemeral port; read :attr:`url` after
    construction.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
    ) -> None:
        if not token and not _is_loopback(host):
            raise CampaignError(
                f"refusing to serve on {host!r} without a token: a worker runs "
                "whatever it is sent, so a non-loopback bind needs --token"
            )
        self.token = token
        self.state = _WorkerState()
        self._server = ThreadingHTTPServer((host, port), _WorkerHandler)
        self._server.daemon_threads = True
        self._server.agent = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — the real port even when created with 0."""
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "WorkerAgent":
        """Serve from a daemon thread and return immediately."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` or interrupt."""
        self._server.serve_forever()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


# ---------------------------------------------------------------------------
# Coordinator (client side)
# ---------------------------------------------------------------------------


def load_workers_file(path: Union[str, Path]) -> List[str]:
    """Parse a workers file: one ``http://host:port`` per line.

    Blank lines and ``#`` comments are ignored.  This is the format behind
    the CLI's ``--workers-file``.
    """
    urls: List[str] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith(("http://", "https://")):
            raise CampaignError(
                f"workers file {path}: {line!r} is not an http(s) URL"
            )
        urls.append(line.rstrip("/"))
    if not urls:
        raise CampaignError(f"workers file {path} lists no workers")
    return urls


class WorkerClient:
    """Coordinator-side handle for one remote :class:`WorkerAgent`."""

    def __init__(self, url: str, token: Optional[str] = None) -> None:
        self.url = url.rstrip("/")
        parsed = urllib.parse.urlparse(self.url)
        if parsed.scheme not in ("http", "https") or not parsed.hostname:
            raise CampaignError(f"worker URL {url!r} is not an http(s) URL")
        self._host = parsed.hostname
        self._port = parsed.port or (443 if parsed.scheme == "https" else 80)
        self._scheme = parsed.scheme
        self.token = token
        self.alive = True
        #: The worker's engine backend, as its last /health reported it.
        self.engine_backend: Optional[str] = None
        self.completed = 0
        #: Set when a trial overran its deadline here.  A wedged agent can
        #: still answer /health (the serving threads are independent), so
        #: liveness probing alone would resurrect it; banned is forever.
        self.banned = False

    def _connection(self, timeout: float) -> http.client.HTTPConnection:
        cls = (
            http.client.HTTPSConnection
            if self._scheme == "https"
            else http.client.HTTPConnection
        )
        return cls(self._host, self._port, timeout=timeout)

    def _headers(self) -> Dict[str, str]:
        return {} if self.token is None else {"X-Repro-Token": self.token}

    def probe(self, timeout: float = 5.0) -> bool:
        """``GET /health``; updates :attr:`alive` and :attr:`engine_backend`."""
        if self.banned:
            self.alive = False
            return False
        conn = self._connection(timeout)
        try:
            conn.request("GET", "/health", headers=self._headers())
            response = conn.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
            ok = response.status == 200 and payload.get("kind") == "repro.worker"
            if ok:
                self.engine_backend = payload.get("engine_backend")
            self.alive = ok
        except (OSError, ValueError):
            self.alive = False
        finally:
            conn.close()
        return self.alive

    def run_trial(
        self,
        trial: "Trial",
        timeout: float,
        slot_budget: Optional[int] = None,
        records_only: bool = False,
        retries: int = 2,
        backoff_s: float = 0.5,
        probe_timeout: float = 5.0,
    ) -> Pair:
        """Run one trial on this worker, with transient-error retries.

        Failure taxonomy (what the fault-handling contract hinges on):

        * **Transient** (connection refused/reset while the health probe
          still answers, or an HTTP 5xx reply): retried on this same worker
          up to ``retries`` times with exponential backoff — idempotent
          because trials are deterministic.
        * **Worker loss** (probe fails after an error, or the trial overran
          ``timeout``): raises :class:`WorkerUnavailable`; the dispatcher
          requeues the trial for the surviving workers.  A worker that hung
          past its deadline is *not* reused — its agent may still be wedged
          inside the stale trial.
        * **Poison** (HTTP 4xx: fingerprint/protocol mismatch, bad payload):
          raises :class:`~repro.campaign.results.CampaignError` immediately;
          no other worker would fare better.
        """
        payload = pickle.dumps(
            {
                "protocol": PROTOCOL_VERSION,
                "trial": trial,
                "fingerprint": _config_fingerprint(trial.config),
                "slot_budget": slot_budget,
                "records_only": records_only,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        headers = self._headers()
        headers["Content-Type"] = "application/octet-stream"
        delay = backoff_s
        for attempt in range(retries + 1):
            conn = self._connection(timeout)
            try:
                conn.request("POST", "/run", body=payload, headers=headers)
                response = conn.getresponse()
                body = response.read()
            except socket.timeout:
                conn.close()
                self.alive = False
                self.banned = True
                raise WorkerUnavailable(
                    f"{self.url}: trial {trial.name!r} exceeded its "
                    f"{timeout:.0f}s deadline"
                ) from None
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                if not self.probe(probe_timeout):
                    raise WorkerUnavailable(
                        f"{self.url}: {exc} (health probe failed)"
                    ) from exc
                if attempt == retries:
                    raise WorkerUnavailable(
                        f"{self.url}: {exc} after {retries + 1} attempts"
                    ) from exc
                time.sleep(delay)
                delay *= 2
                continue
            else:
                conn.close()
            if response.status == 200:
                reply = pickle.loads(body)
                record: TrialRecord = reply["record"]
                unpack_artifact_dirs(record, reply.get("artifacts", {}))
                self.completed += 1
                return record, reply.get("result")
            if 400 <= response.status < 500:
                raise CampaignError(
                    f"worker {self.url} rejected trial {trial.name!r}: "
                    f"{body.decode('utf-8', 'replace')}"
                )
            # 5xx: the trial itself raised on the worker.  Deterministic
            # simulator bugs would also fail locally; still retry once in
            # case the worker was resource-starved, then surface the error.
            error = "unknown worker error"
            try:
                error = pickle.loads(body).get("error", error)
            except Exception:
                error = body.decode("utf-8", "replace") or error
            if attempt == retries:
                raise CampaignError(
                    f"trial {trial.name!r} failed on worker {self.url}: {error}"
                )
            time.sleep(delay)
            delay *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    def shutdown(self, timeout: float = 5.0) -> None:
        """Best-effort ``POST /shutdown`` (used by tests/orchestration)."""
        conn = self._connection(timeout)
        try:
            conn.request("POST", "/shutdown", headers=self._headers())
            conn.getresponse().read()
        except OSError:
            pass
        finally:
            conn.close()


class DistributedExecutor(Executor):
    """Run campaign trials across remote :class:`WorkerAgent` processes.

    The coordinator streams the local executors' dispatch order across
    machines:

    * :meth:`run` probes the roster once, then drains the whole
      longest-first order (:func:`~repro.campaign.scheduling.plan_trials`)
      from one shared work queue, one puller thread per live worker, and
      reports each finished trial through ``on_done`` from the calling
      thread — so ``Campaign.run`` persists per trial, as local runs do;
    * when a worker dies, its in-flight trial goes back on the front of the
      queue and the surviving pullers drain it;
    * each trial gets ``trial_timeout`` seconds on a worker
      (:data:`DEFAULT_TRIAL_TIMEOUT_S` by default); a worker that overruns
      it is lost for the campaign;
    * if every worker is dead (at the probe or mid-campaign), execution
      degrades to in-process serial execution with a logged warning —
      unless ``local_fallback=False``, which raises
      :class:`DistributedError` instead.

    Determinism: workers run the exact same
    :func:`~repro.campaign.executors.execute_trial` path, so records are
    byte-identical to :class:`~repro.campaign.executors.SerialExecutor`
    (only ``wall_seconds``, excluded from record equality, differs) no
    matter which worker ran what, how often a trial was retried, or whether
    the campaign fell back to local execution.

    ``workers`` accepts worker URLs, a path to a workers file
    (:func:`load_workers_file`), or ready :class:`WorkerClient` instances.
    """

    def __init__(
        self,
        workers: Union[str, Path, Sequence[Union[str, WorkerClient]]],
        records_only: bool = False,
        token: Optional[str] = None,
        trial_timeout: float = DEFAULT_TRIAL_TIMEOUT_S,
        retries: int = 2,
        backoff_s: float = 0.5,
        probe_timeout_s: float = 5.0,
        local_fallback: bool = True,
    ) -> None:
        if isinstance(workers, (str, Path)):
            workers = load_workers_file(workers)
        self.clients: List[WorkerClient] = [
            w if isinstance(w, WorkerClient) else WorkerClient(w, token=token)
            for w in workers
        ]
        if not self.clients:
            raise CampaignError("DistributedExecutor needs at least one worker")
        self.records_only = records_only
        self.trial_timeout = trial_timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.probe_timeout_s = probe_timeout_s
        self.local_fallback = local_fallback
        self.workers = len(self.clients)

    # -- roster --------------------------------------------------------------

    def probe_workers(self) -> List[WorkerClient]:
        """Health-probe the whole roster; returns the live workers."""
        for client in self.clients:
            client.probe(self.probe_timeout_s)
        return [c for c in self.clients if c.alive]

    def roster(self) -> List[Dict[str, object]]:
        """The worker roster as recorded in workspace manifests."""
        return [
            {"url": c.url, "alive": c.alive,
             "engine_backend": c.engine_backend,
             "trials_completed": c.completed}
            for c in self.clients
        ]

    def plan(self, trials: Sequence["Trial"]) -> ExecutionPlan:
        """Probe the roster; the dispatch order, one slot per live worker."""
        return plan_trials(trials, max(1, len(self.probe_workers())))

    # -- dispatch ------------------------------------------------------------

    def run(
        self, trials: Sequence["Trial"], on_done: Optional[OnDone] = None
    ) -> List[Pair]:
        pending = deque(self.plan(trials).order)
        results: Dict[int, Pair] = {}
        # Guards `pending`, `in_flight` and `stop`.  A puller whose queue is
        # empty waits while other trials are in flight: a lost worker puts
        # its trial back, and a survivor must be there to take it.
        cond = threading.Condition()
        in_flight = 0
        stop = False
        finished: "queue.SimpleQueue" = queue.SimpleQueue()

        def pull(client: WorkerClient) -> None:
            nonlocal in_flight, stop
            try:
                while True:
                    with cond:
                        while not pending and in_flight and not stop:
                            cond.wait()
                        if stop or not pending:
                            return
                        entry = pending.popleft()
                        in_flight += 1
                    trial = trials[entry.index]
                    try:
                        outcome = client.run_trial(
                            trial,
                            timeout=self.trial_timeout,
                            slot_budget=slot_budget(entry),
                            records_only=self.records_only,
                            retries=self.retries,
                            backoff_s=self.backoff_s,
                            probe_timeout=self.probe_timeout_s,
                        )
                    except WorkerUnavailable as exc:
                        log.warning(
                            "worker lost, re-dispatching %r: %s", trial.name, exc
                        )
                        with cond:
                            pending.appendleft(entry)
                            in_flight -= 1
                            cond.notify_all()
                        return  # this worker is out for the campaign
                    except BaseException as exc:  # poison trial / real bug
                        outcome = exc
                    with cond:
                        in_flight -= 1
                        if isinstance(outcome, BaseException):
                            stop = True  # finish what runs, start nothing new
                        cond.notify_all()
                    finished.put((entry, outcome))
            finally:
                finished.put(None)  # this puller is done

        pullers = [c for c in self.clients if c.alive]
        for client in pullers:
            threading.Thread(target=pull, args=(client,), daemon=True).start()
        error: Optional[BaseException] = None
        active = len(pullers)
        try:
            while active:
                item = finished.get()
                if item is None:
                    active -= 1
                    continue
                entry, outcome = item
                if isinstance(outcome, BaseException):
                    error = error or outcome
                    continue
                results[entry.index] = outcome
                if on_done is not None:
                    on_done(outcome)
        finally:
            with cond:
                stop = True
                cond.notify_all()
        if error is not None:
            raise error
        if pending:
            # Every worker died (or none was ever reachable): graceful
            # degradation to the local serial path, loudly.
            leftovers = list(pending)
            if not self.local_fallback:
                raise DistributedError(
                    f"no live workers left and local_fallback=False; "
                    f"{len(leftovers)} trial(s) not run "
                    f"(first: {leftovers[0].name!r})"
                )
            log.warning(
                "no live workers remain; running %d trial(s) locally "
                "(records are identical either way)",
                len(leftovers),
            )
            # Their planned entries go along, so a sharded trial keeps the
            # slot budget it would have run with on a worker.
            pairs = run_local(
                trials, 1, self.records_only, on_done, queue=leftovers
            )
            for entry in leftovers:
                results[entry.index] = pairs[entry.index]
        return [results[index] for index in range(len(trials))]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistributedExecutor(workers={[c.url for c in self.clients]})"
        )
