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
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from repro.campaign import (
    Campaign,
    CampaignError,
    CostCache,
    DistributedError,
    DistributedExecutor,
    SerialExecutor,
    WorkerAgent,
    WorkerClient,
    load_workers_file,
)
from repro.campaign.core import _config_fingerprint
from repro.campaign.distributed import PROTOCOL_VERSION
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

    def test_cost_cache_records_measured_costs(self, tmp_path):
        cache = CostCache(tmp_path / "c.costs.json")
        agent = WorkerAgent().start()
        try:
            executor = DistributedExecutor([agent.url], cost_cache=cache)
            make_campaign(loads=LOADS[:2]).run(executor=executor)
        finally:
            agent.stop()
        assert len(cache) == 2
        assert (tmp_path / "c.costs.json").exists()


# ---------------------------------------------------------------------------
# Fault paths
# ---------------------------------------------------------------------------


class TestWorkerLoss:
    def test_sigkill_mid_trial_completes_via_replanning(
        self, tmp_path, serial_records
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
            with pytest.warns(RuntimeWarning):
                result_set = campaign.run(
                    executor=executor, save=distributed_path
                )
        finally:
            victim.kill(), victim.wait()
            survivor.kill(), survivor.wait()
        killer.join(timeout=60)
        assert killed.is_set(), "victim was never observed running a trial"
        assert sorted(result_set.records, key=lambda r: r.name) == sorted(
            (r for r in campaign.run(executor=SerialExecutor()).records),
            key=lambda r: r.name,
        )
        # The acceptance bar: the persisted JSONL is byte-identical to the
        # serial run's (modulo wall_seconds, which equality also excludes).
        assert_jsonl_identical(serial_path, distributed_path)

    def test_hanging_worker_hits_timeout_and_work_moves_on(self, serial_records):
        hang = _start_hanging_worker()
        agent = WorkerAgent().start()
        try:
            executor = DistributedExecutor(
                [f"http://127.0.0.1:{hang.server_address[1]}", agent.url],
                trial_timeout=1.0,
                backoff_s=0.05,
            )
            with pytest.warns(RuntimeWarning, match="deadline"):
                records = make_campaign().run(executor=executor).records
            # The hung worker is banned for the campaign: probes must not
            # resurrect it even though its /health still answers.
            hung_client = executor.clients[0]
            assert hung_client.banned
            assert not hung_client.probe()
        finally:
            hang.shutdown()
            agent.stop()
        assert sorted(records, key=lambda r: r.name) == serial_records

    def test_all_workers_dead_falls_back_to_local(self, serial_records):
        executor = DistributedExecutor(
            ["http://127.0.0.1:9", "http://127.0.0.1:10"]
        )
        with pytest.warns(RuntimeWarning, match="no live workers"):
            records = make_campaign().run(executor=executor).records
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
                 "slots": 1, "running": None, "completed": 0, "failed": 0}
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
        assert payload["slots"] == 1
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


class TestTimeoutDerivation:
    def test_unmeasured_trials_get_the_default(self):
        executor = DistributedExecutor(["http://127.0.0.1:9"],
                                       default_timeout_s=123.0)
        (trial,) = make_campaign(loads=LOADS[:1]).trials()
        assert executor._timeout_for(trial) == 123.0

    def test_measured_cost_scales_the_deadline(self, tmp_path):
        cache = CostCache(tmp_path / "c.json")
        (trial,) = make_campaign(loads=LOADS[:1]).trials()
        cache.record(trial, 10.0)
        executor = DistributedExecutor(
            ["http://127.0.0.1:9"], cost_cache=cache, timeout_factor=8.0
        )
        assert executor._timeout_for(trial) == 80.0

    def test_short_measurements_are_clamped_to_the_floor(self, tmp_path):
        cache = CostCache(tmp_path / "c.json")
        (trial,) = make_campaign(loads=LOADS[:1]).trials()
        cache.record(trial, 0.01)
        executor = DistributedExecutor(
            ["http://127.0.0.1:9"], cost_cache=cache, min_timeout_s=30.0
        )
        assert executor._timeout_for(trial) == 30.0

    def test_explicit_timeout_overrides_everything(self, tmp_path):
        cache = CostCache(tmp_path / "c.json")
        (trial,) = make_campaign(loads=LOADS[:1]).trials()
        cache.record(trial, 10.0)
        executor = DistributedExecutor(
            ["http://127.0.0.1:9"], cost_cache=cache, trial_timeout=7.0
        )
        assert executor._timeout_for(trial) == 7.0


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

    def test_agent_rejects_silly_slot_counts(self):
        with pytest.raises(CampaignError, match="slots"):
            WorkerAgent(slots=0)
