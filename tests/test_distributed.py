"""Distributed campaign execution: fault paths and record identity.

The contract under test: no matter which workers run which trials, how
often a trial is retried, or whether the campaign degrades to local
execution, the final records are identical to a
:class:`~repro.campaign.executors.SerialExecutor` run (``wall_seconds``
excepted — it is excluded from record equality by design).

Fault injection used here:

* **SIGKILL mid-trial** — real ``repro worker serve`` subprocesses, one of
  which is killed the moment its /health shows a running trial;
* **hang past deadline** — a fake worker that answers /health but never
  /run, so only the per-trial timeout can unstick the coordinator;
* **coordinator restart** — a campaign resumed from the JSONL a previous
  (interrupted) run left behind;
* **every worker dead** — a roster of closed ports.
"""

import http.client
import json
import logging
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import urllib.request
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from repro.campaign import (
    Campaign,
    CampaignError,
    DistributedError,
    DistributedExecutor,
    ResultSet,
    SerialExecutor,
    WorkerAgent,
    WorkerClient,
    load_workers_file,
)
from repro.campaign.core import _config_fingerprint
from repro.campaign.distributed import (
    DEFAULT_TRIAL_TIMEOUT_S,
    PROTOCOL_VERSION,
    WorkerUnavailable,
)
from repro.campaign.executors import execute_trial
from repro.results import pack_dir, unpack_dir
from repro.sim.engine import ENGINE_BACKEND

SRC = str(Path(__file__).resolve().parent.parent / "src")

LOADS = [0.4, 0.5, 0.6, 0.7]


def make_campaign(loads=tuple(LOADS), **fixed):
    """A small fig5a-style campaign; ``duration_ns`` keeps trials sub-second."""
    fixed.setdefault("duration_ns", 150_000)
    return (
        Campaign("dc")
        .schemes("BFC")
        .sweep(load=list(loads))
        .fixed(**fixed)
    )


@pytest.fixture(scope="module")
def serial_records():
    """The ground truth every distributed run must reproduce."""
    return sorted(
        make_campaign().run(executor=SerialExecutor()).records,
        key=lambda r: r.name,
    )


def spawn_worker(*extra_args):
    """A real ``repro worker serve`` subprocess; returns (process, url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "serve", "--port", "0",
         *extra_args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    assert "listening on " in line, f"unexpected worker banner: {line!r}"
    return proc, line.split("listening on ", 1)[1].split()[0]


def assert_jsonl_identical(path_a, path_b):
    """Line-identical JSONL modulo wall_seconds (excluded from equality)."""

    def canon(path):
        lines = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            payload = json.loads(line)
            payload.pop("wall_seconds", None)
            lines.append(json.dumps(payload, sort_keys=True))
        return lines

    assert canon(path_a) == canon(path_b)


# ---------------------------------------------------------------------------
# Happy path
# ---------------------------------------------------------------------------


class TestDistributedMatchesSerial:
    def test_in_process_agents_produce_identical_records(self, serial_records):
        agents = [WorkerAgent().start(), WorkerAgent().start()]
        try:
            executor = DistributedExecutor([a.url for a in agents])
            records = make_campaign().run(executor=executor).records
        finally:
            for agent in agents:
                agent.stop()
        assert sorted(records, key=lambda r: r.name) == serial_records
        # Work was actually distributed, not funneled to one agent.
        assert all(agent.state.completed > 0 for agent in agents)

    def test_sharded_trial_records_its_slot_budget_like_a_local_run(self):
        from tests.test_campaign_scheduling import cross_dc_trial

        def campaign():
            return (
                Campaign("slots").schemes("DCQCN").fixed(shards=2)
                .config_builder(cross_dc_trial)
            )

        local = campaign().run(cores=2)
        agents = [WorkerAgent().start(), WorkerAgent().start()]
        try:
            executor = DistributedExecutor([a.url for a in agents])
            remote = campaign().run(executor=executor)
        finally:
            for agent in agents:
                agent.stop()
        (name,) = [record.name for record in local.records]
        local_stats = local.experiment_result(name).shard_stats
        remote_stats = remote.experiment_result(name).shard_stats
        assert set(remote_stats) == set(local_stats)
        assert remote_stats["slot_budget"] == local_stats["slot_budget"] == 2
        assert remote_stats["oversubscribed"] is local_stats["oversubscribed"]

    def test_artifacts_ship_back_from_workers(self, tmp_path, serial_records):
        spill = str(tmp_path / "spill")
        agent = WorkerAgent().start()
        try:
            executor = DistributedExecutor([agent.url])
            result_set = make_campaign(
                loads=LOADS[:1], results_dir=spill
            ).run(executor=executor)
        finally:
            agent.stop()
        (record,) = result_set.records
        run_dir = record.artifacts["results_dir"]
        assert os.path.isdir(run_dir)
        assert os.path.exists(os.path.join(run_dir, "flows.jsonl"))
        # The shipped metrics still match serial for the same trial.
        baseline = {r.name: r for r in serial_records}
        assert record.metrics == baseline[record.name].metrics


class TestStreaming:
    def test_short_trials_are_reported_while_a_long_one_runs(self, tmp_path):
        # One trial ~40x longer than each short one.  With two workers the
        # long one occupies one worker while the other drains the three short
        # ones; each must be reported (and persisted) before the long one ends.
        # Subprocess workers: in-process agents share one execution lock.
        campaign = (
            Campaign("stream")
            .schemes("BFC")
            .sweep(duration_ns=[60_000_000, 100_000, 110_000, 120_000])
            .fixed(load=0.6)
        )
        long_name = "stream/BFC/duration_ns=60000000"
        save = tmp_path / "stream.jsonl"
        workers = [spawn_worker(), spawn_worker()]
        urls = [url for _, url in workers]
        seen = []

        def running():
            names = set()
            for url in urls:
                with urllib.request.urlopen(url + "/health", timeout=5) as resp:
                    names.add(json.loads(resp.read())["running"])
            return names

        class Watched(DistributedExecutor):
            def run(self, trials, on_done=None):
                def watch(pair):
                    on_done(pair)  # Campaign.run persists here
                    name = pair[0].name
                    saved = {r.name for r in ResultSet.load(save)}
                    seen.append((name, name in saved, long_name in running()))

                return super().run(trials, watch)

        try:
            result_set = campaign.run(executor=Watched(urls), save=save)
        finally:
            for proc, _ in workers:
                proc.kill()
                proc.wait()
        assert [name for name, _, _ in seen][-1] == long_name
        assert all(saved for _, saved, _ in seen)
        assert [live for name, _, live in seen if name != long_name] == [True] * 3
        assert result_set == campaign.run(executor=SerialExecutor())


# ---------------------------------------------------------------------------
# Fault paths

class FakeWorker(WorkerClient):
    """A worker that runs trials in this process, scripted per dispatch.

    ``script`` maps a dispatch number (0-based, on this worker) to a
    callable run before the trial; it may raise to fake a loss or a poison
    reply.  Every dispatch is logged with its trial name, deadline and thread.
    """

    def __init__(self, url, script=None):
        super().__init__(url)
        self.script = dict(script or {})
        self.dispatched = []

    def probe(self, timeout=5.0):
        return self.alive

    def run_trial(self, trial, timeout, records_only=False, slot_budget=None, **kwargs):
        number = len(self.dispatched)
        self.dispatched.append((trial.name, timeout, threading.current_thread()))
        if number in self.script:
            self.script[number](self)
        record, result = execute_trial(trial, slot_budget=slot_budget)
        self.completed += 1
        return record, (None if records_only else result)


def lose(worker):
    worker.alive = False
    raise WorkerUnavailable(f"{worker.url}: connection refused (probe failed)")


def duration_campaign(durations):
    return Campaign("ord").schemes("BFC").sweep(duration_ns=list(durations))


class TestStreamDispatch:
    def test_one_worker_runs_the_longest_first_order(self):
        trials = duration_campaign([100_000, 300_000, 200_000]).trials()
        worker = FakeWorker("http://fake-a")
        done = []
        pairs = DistributedExecutor([worker]).run(
            trials, lambda pair: done.append(pair[0].name)
        )
        longest_first = [trials[1].name, trials[2].name, trials[0].name]
        assert [name for name, _, _ in worker.dispatched] == longest_first
        assert done == longest_first
        # Results come back in input order whatever the dispatch order was.
        assert [record.name for record, _ in pairs] == [t.name for t in trials]

    def test_on_done_runs_in_the_calling_thread(self):
        trials = make_campaign().trials()
        workers = [FakeWorker("http://fake-a"), FakeWorker("http://fake-b")]
        threads = []
        DistributedExecutor(workers).run(
            trials, lambda pair: threads.append(threading.get_ident())
        )
        assert threads == [threading.get_ident()] * len(trials)
        # The trials themselves ran on the pullers, not here.
        assert all(
            thread is not threading.current_thread()
            for worker in workers
            for _, _, thread in worker.dispatched
        )

    def test_lost_workers_trial_goes_back_on_the_front(self, serial_records):
        # Both workers hold a trial when the victim is lost; the survivor
        # finishes its own only after the victim's puller has requeued the
        # lost trial and exited, so the survivor's next pull shows where the
        # lost trial went.
        trials = make_campaign().trials()

        def wait_for(started):
            for _ in range(1000):
                if started.dispatched:
                    return
                time.sleep(0.01)
            raise AssertionError(f"{started.url} never received a trial")

        def lose_while_both_run(worker):
            wait_for(survivor)
            lose(worker)

        def finish_after_the_loss(worker):
            wait_for(victim)
            victim.dispatched[0][2].join(timeout=10)

        victim = FakeWorker("http://victim", {0: lose_while_both_run})
        survivor = FakeWorker("http://survivor", {0: finish_after_the_loss})
        pairs = DistributedExecutor([victim, survivor]).run(trials)
        lost_name = victim.dispatched[0][0]
        survivor_names = [name for name, _, _ in survivor.dispatched]
        assert survivor_names[0] != lost_name
        assert survivor_names[1] == lost_name
        assert sorted(survivor_names) == sorted(t.name for t in trials)
        assert sorted((r for r, _ in pairs), key=lambda r: r.name) == serial_records

    def test_every_worker_lost_mid_campaign_falls_back_locally(
        self, serial_records, caplog
    ):
        workers = [
            FakeWorker("http://fake-a", {0: lose}),
            FakeWorker("http://fake-b", {0: lose}),
        ]
        with caplog.at_level(logging.WARNING, logger="repro.campaign"):
            records = make_campaign().run(
                executor=DistributedExecutor(workers)
            ).records
        assert caplog.text.count("worker lost") == 2
        assert "no live workers remain; running 4 trial(s) locally" in caplog.text
        assert sorted(records, key=lambda r: r.name) == serial_records

    def test_sharded_trial_falls_back_with_its_slot_budget(self):
        from tests.test_campaign_scheduling import cross_dc_trial

        trials = (
            Campaign("slots").schemes("DCQCN").fixed(shards=2)
            .config_builder(cross_dc_trial).trials()
        )
        healthy = [FakeWorker("http://fake-a"), FakeWorker("http://fake-b")]
        lost = [
            FakeWorker("http://fake-a", {0: lose}),
            FakeWorker("http://fake-b", {0: lose}),
        ]
        ((_, on_worker),) = DistributedExecutor(healthy).run(trials)
        ((_, fell_back),) = DistributedExecutor(lost).run(trials)
        assert not any(worker.alive for worker in lost)
        assert on_worker.shard_stats["slot_budget"] == 2
        assert fell_back.shard_stats == on_worker.shard_stats

    def test_worker_loss_is_logged_not_warned(self):
        workers = [FakeWorker("http://fake-a", {0: lose})]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = make_campaign(loads=LOADS[:1]).run(
                executor=DistributedExecutor(workers)
            ).records
        assert len(records) == 1

    def test_fallback_disabled_mid_campaign_raises(self):
        workers = [FakeWorker("http://fake-a", {0: lose})]
        executor = DistributedExecutor(workers, local_fallback=False)
        with pytest.raises(DistributedError, match="no live workers left"):
            make_campaign(loads=LOADS[:2]).run(executor=executor)

    def test_poison_trial_stops_further_dispatches(self):
        def poison(worker):
            raise CampaignError("worker rejected trial: fingerprint mismatch")

        worker = FakeWorker("http://fake-a", {0: poison})
        done = []
        with pytest.raises(CampaignError, match="fingerprint mismatch"):
            DistributedExecutor([worker]).run(
                make_campaign().trials(), done.append
            )
        assert len(worker.dispatched) == 1
        assert done == []

# ---------------------------------------------------------------------------


class TestWorkerLoss:
    def test_sigkill_mid_trial_completes_via_requeue(
        self, tmp_path, serial_records, caplog
    ):
        # Full-length trials here: the victim must be killable mid-trial.
        campaign = (
            Campaign("dc").schemes("BFC").sweep(load=list(LOADS))
        )
        serial_path = tmp_path / "serial.jsonl"
        campaign.run(executor=SerialExecutor(), save=serial_path)

        victim, victim_url = spawn_worker()
        survivor, survivor_url = spawn_worker()
        killed = threading.Event()

        def kill_when_running():
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    with urllib.request.urlopen(
                        victim_url + "/health", timeout=2
                    ) as response:
                        if json.loads(response.read())["running"]:
                            os.kill(victim.pid, signal.SIGKILL)
                            killed.set()
                            return
                except OSError:
                    return  # victim already gone
                time.sleep(0.005)

        killer = threading.Thread(target=kill_when_running, daemon=True)
        killer.start()
        distributed_path = tmp_path / "distributed.jsonl"
        try:
            executor = DistributedExecutor(
                [victim_url, survivor_url], backoff_s=0.05
            )
            with caplog.at_level(logging.WARNING, logger="repro.campaign"):
                result_set = campaign.run(
                    executor=executor, save=distributed_path
                )
        finally:
            victim.kill(), victim.wait()
            survivor.kill(), survivor.wait()
        killer.join(timeout=60)
        assert killed.is_set(), "victim was never observed running a trial"
        assert "worker lost" in caplog.text
        assert sorted(result_set.records, key=lambda r: r.name) == sorted(
            (r for r in campaign.run(executor=SerialExecutor()).records),
            key=lambda r: r.name,
        )
        # The acceptance bar: the persisted JSONL is byte-identical to the
        # serial run's (modulo wall_seconds, which equality also excludes).
        assert_jsonl_identical(serial_path, distributed_path)

    def test_hanging_worker_hits_timeout_and_work_moves_on(
        self, serial_records, caplog
    ):
        hang = _start_hanging_worker()
        agent = WorkerAgent().start()
        try:
            executor = DistributedExecutor(
                [f"http://127.0.0.1:{hang.server_address[1]}", agent.url],
                trial_timeout=1.0,
                backoff_s=0.05,
            )
            with caplog.at_level(logging.WARNING, logger="repro.campaign"):
                records = make_campaign().run(executor=executor).records
            assert "deadline" in caplog.text
            # The survivor waited for the hung trial and took it back; the
            # campaign never fell back to local execution.
            assert "no live workers" not in caplog.text
            assert agent.state.completed == len(LOADS)
            # The hung worker is banned for the campaign: probes must not
            # resurrect it even though its /health still answers.
            hung_client = executor.clients[0]
            assert hung_client.banned
            assert not hung_client.probe()
        finally:
            hang.shutdown()
            agent.stop()
        assert sorted(records, key=lambda r: r.name) == serial_records

    def test_all_workers_dead_falls_back_to_local(self, serial_records, caplog):
        executor = DistributedExecutor(
            ["http://127.0.0.1:9", "http://127.0.0.1:10"]
        )
        with caplog.at_level(logging.WARNING, logger="repro.campaign"):
            records = make_campaign().run(executor=executor).records
        assert "no live workers" in caplog.text
        assert sorted(records, key=lambda r: r.name) == serial_records

    def test_local_fallback_can_be_disabled(self):
        executor = DistributedExecutor(
            ["http://127.0.0.1:9"], local_fallback=False
        )
        with pytest.raises(DistributedError):
            make_campaign(loads=LOADS[:1]).run(executor=executor)

    def test_coordinator_restart_resumes_only_pending_trials(
        self, tmp_path, serial_records
    ):
        save = tmp_path / "campaign.jsonl"
        # "Crash" after two trials: a first run over a subset of the grid
        # leaves exactly the JSONL a killed coordinator would have persisted.
        make_campaign(loads=LOADS[:2]).run(
            executor=SerialExecutor(), save=save
        )
        agent = WorkerAgent().start()
        try:
            executor = DistributedExecutor([agent.url])
            result_set = make_campaign().run(
                executor=executor, save=save, resume=save
            )
            # Idempotent retry contract: finished trials are not re-run.
            assert agent.state.completed == len(LOADS) - 2
        finally:
            agent.stop()
        assert sorted(result_set.records, key=lambda r: r.name) == serial_records


def _start_hanging_worker() -> ThreadingHTTPServer:
    """A worker that answers /health but wedges forever on /run."""

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, format, *args):  # noqa: A002
            pass

        def do_GET(self):
            body = json.dumps(
                {"kind": "repro.worker", "protocol": PROTOCOL_VERSION,
                 "running": None, "completed": 0, "failed": 0}
            ).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            time.sleep(300)  # never answers inside any test deadline

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


# ---------------------------------------------------------------------------
# Protocol guards
# ---------------------------------------------------------------------------


def _post_run(url, payload, token=None):
    parsed = url.split("//", 1)[1]
    host, port = parsed.split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    headers = {"Content-Type": "application/octet-stream"}
    if token is not None:
        headers["X-Repro-Token"] = token
    conn.request("POST", "/run", body=pickle.dumps(payload), headers=headers)
    response = conn.getresponse()
    body = response.read()
    conn.close()
    return response.status, body


class TestWorkerAgentProtocol:
    @pytest.fixture()
    def agent(self):
        agent = WorkerAgent().start()
        yield agent
        agent.stop()

    def test_health_reports_status(self, agent):
        with urllib.request.urlopen(agent.url + "/health", timeout=5) as resp:
            payload = json.loads(resp.read())
        assert payload["kind"] == "repro.worker"
        assert payload["protocol"] == PROTOCOL_VERSION
        assert "slots" not in payload
        assert payload["running"] is None
        assert payload["completed"] == 0
        assert payload["engine_backend"] == ENGINE_BACKEND

    def test_roster_records_each_workers_engine(self, agent):
        executor = DistributedExecutor([agent.url])
        assert executor.roster()[0]["engine_backend"] is None  # not probed yet
        executor.probe_workers()
        assert executor.roster()[0]["engine_backend"] == ENGINE_BACKEND

    def test_fingerprint_mismatch_is_rejected_409(self, agent):
        (trial,) = make_campaign(loads=LOADS[:1]).trials()
        status, body = _post_run(
            agent.url,
            {"protocol": PROTOCOL_VERSION, "trial": trial,
             "fingerprint": "0" * 12},
        )
        assert status == 409
        assert b"fingerprint mismatch" in body
        assert agent.state.completed == 0

    def test_protocol_version_mismatch_is_rejected_409(self, agent):
        (trial,) = make_campaign(loads=LOADS[:1]).trials()
        status, body = _post_run(
            agent.url,
            {"protocol": PROTOCOL_VERSION + 1, "trial": trial,
             "fingerprint": _config_fingerprint(trial.config)},
        )
        assert status == 409
        assert b"protocol mismatch" in body

    def test_undecodable_payload_is_rejected_400(self, agent):
        conn = http.client.HTTPConnection(*agent.address, timeout=10)
        conn.request("POST", "/run", body=b"not a pickle")
        assert conn.getresponse().status == 400
        conn.close()

    def test_token_required_when_configured(self):
        agent = WorkerAgent(token="sesame").start()
        try:
            (trial,) = make_campaign(loads=LOADS[:1]).trials()
            payload = {
                "protocol": PROTOCOL_VERSION, "trial": trial,
                "fingerprint": _config_fingerprint(trial.config),
            }
            status, _ = _post_run(agent.url, payload)
            assert status == 403
            status, _ = _post_run(agent.url, payload, token="sesame")
            assert status == 200
            # The executor path carries the token through WorkerClient.
            client = WorkerClient(agent.url, token="sesame")
            record, result = client.run_trial(trial, timeout=60)
            assert record.name == trial.name
        finally:
            agent.stop()

    @pytest.mark.parametrize("token", [None, "sesamE", "s\u00e9same"])
    def test_wrong_or_missing_token_is_rejected_403(self, token):
        # An equal-length wrong token, no header at all, and a non-ASCII
        # header all get the same 403 and run nothing.
        agent = WorkerAgent(token="sesame").start()
        try:
            (trial,) = make_campaign(loads=LOADS[:1]).trials()
            payload = {
                "protocol": PROTOCOL_VERSION, "trial": trial,
                "fingerprint": _config_fingerprint(trial.config),
            }
            status, body = _post_run(agent.url, payload, token=token)
            assert status == 403
            assert b"X-Repro-Token" in body
            assert agent.state.completed == 0
        finally:
            agent.stop()

    def test_poison_reply_raises_instead_of_requeueing(self):
        # A 4xx (here: a token the worker refuses) means no other worker
        # would fare better, so run_trial surfaces it instead of retrying.
        agent = WorkerAgent(token="sesame").start()
        try:
            (trial,) = make_campaign(loads=LOADS[:1]).trials()
            client = WorkerClient(agent.url, token="wrong")
            with pytest.raises(CampaignError, match="rejected"):
                client.run_trial(trial, timeout=60)
        finally:
            agent.stop()

    def test_non_loopback_bind_without_token_is_refused(self):
        # Refused before a socket is bound, so nothing is ever served.
        with pytest.raises(CampaignError, match="without a token"):
            WorkerAgent(host="0.0.0.0")

    @pytest.mark.parametrize(
        "host, token", [("0.0.0.0", "sesame"), ("127.0.0.1", None)]
    )
    def test_token_or_loopback_bind_is_accepted(self, host, token):
        agent = WorkerAgent(host=host, token=token).start()
        try:
            _, port = agent.address
            assert WorkerClient(f"http://127.0.0.1:{port}", token=token).probe()
        finally:
            agent.stop()

    def test_shutdown_endpoint_stops_the_agent(self):
        agent = WorkerAgent().start()
        client = WorkerClient(agent.url)
        assert client.probe()
        client.shutdown()
        deadline = time.monotonic() + 10
        while client.probe(timeout=1) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not client.probe(timeout=1)


# ---------------------------------------------------------------------------
# Pieces: rosters, files, timeouts, artifact shipping
# ---------------------------------------------------------------------------


class TestWorkersFile:
    def test_parses_urls_comments_and_blanks(self, tmp_path):
        path = tmp_path / "hosts.txt"
        path.write_text(
            "# the lab boxes\n"
            "http://10.0.0.1:8421\n"
            "\n"
            "http://10.0.0.2:8421/  # trailing slash + comment\n"
        )
        assert load_workers_file(path) == [
            "http://10.0.0.1:8421",
            "http://10.0.0.2:8421",
        ]

    def test_rejects_non_urls(self, tmp_path):
        path = tmp_path / "hosts.txt"
        path.write_text("10.0.0.1:8421\n")
        with pytest.raises(CampaignError, match="not an http"):
            load_workers_file(path)

    def test_rejects_empty_roster(self, tmp_path):
        path = tmp_path / "hosts.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(CampaignError, match="no workers"):
            load_workers_file(path)

    def test_executor_accepts_a_workers_file(self, tmp_path):
        path = tmp_path / "hosts.txt"
        path.write_text("http://127.0.0.1:9\n")
        executor = DistributedExecutor(path)
        assert [c.url for c in executor.clients] == ["http://127.0.0.1:9"]


class TestTimeout:
    def test_trials_get_the_default_deadline(self):
        executor = DistributedExecutor(["http://127.0.0.1:9"])
        assert executor.trial_timeout == DEFAULT_TRIAL_TIMEOUT_S == 300.0

    def test_explicit_timeout_is_every_trials_deadline(self):
        worker = FakeWorker("http://fake-a")
        executor = DistributedExecutor([worker], trial_timeout=7.0)
        make_campaign(loads=LOADS[:2]).run(executor=executor)
        assert [timeout for _, timeout, _ in worker.dispatched] == [7.0, 7.0]


class TestArtifactShipping:
    def test_pack_unpack_roundtrip(self, tmp_path):
        src = tmp_path / "run"
        (src / "nested").mkdir(parents=True)
        (src / "flows.jsonl").write_bytes(b"line1\nline2\n")
        (src / "nested" / "x.bin").write_bytes(b"\x00\x01")
        payload = pack_dir(str(src))
        assert sorted(payload) == ["flows.jsonl", "nested/x.bin"]
        dest = tmp_path / "copy"
        unpack_dir(str(dest), payload)
        assert (dest / "flows.jsonl").read_bytes() == b"line1\nline2\n"
        assert (dest / "nested" / "x.bin").read_bytes() == b"\x00\x01"

    def test_unpack_rejects_path_escape(self, tmp_path):
        with pytest.raises(ValueError, match="escapes"):
            unpack_dir(str(tmp_path / "d"), {"../evil": b"x"})


class TestValidation:
    def test_needs_at_least_one_worker(self):
        with pytest.raises(CampaignError, match="at least one worker"):
            DistributedExecutor([])

    def test_rejects_bogus_worker_url(self):
        with pytest.raises(CampaignError, match="not an http"):
            DistributedExecutor(["ftp://example.com"])
