#!/usr/bin/env python3
"""Distributed campaign walkthrough: two localhost workers, one killed mid-trial.

This is the full fault-tolerance story on one machine:

1. start two ``repro worker serve`` agents as subprocesses;
2. run a small fig5a-style campaign through the
   :class:`~repro.campaign.DistributedExecutor` into an experiment
   workspace — and, while the campaign is in flight, SIGKILL one worker the
   moment it reports a running trial;
3. the coordinator logs the loss, puts the lost trial back on the queue for
   the survivor, and the campaign completes;
4. the final records are verified identical to a serial run of the same
   campaign, and the workspace (results.jsonl + manifest.json + report.md)
   is printed.

This script is also CI's ``distributed-smoke`` job.  Run with::

    python examples/distributed_localhost.py [workspace-root]
"""

from __future__ import annotations

import json
import logging
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

from repro.campaign import Campaign, DistributedExecutor, SerialExecutor, Workspace


def make_campaign() -> Campaign:
    return Campaign("fig5a-smoke").schemes("BFC").sweep(load=[0.4, 0.5, 0.6, 0.7])


def spawn_worker() -> "tuple[subprocess.Popen, str]":
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    banner = proc.stdout.readline()
    url = banner.split("listening on ", 1)[1].split()[0]
    print(f"  started worker pid={proc.pid} at {url}")
    return proc, url


def kill_when_running(proc: subprocess.Popen, url: str, done: threading.Event):
    """SIGKILL the worker as soon as /health shows a trial in flight."""
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url + "/health", timeout=2) as resp:
                if json.loads(resp.read())["running"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    print(f"  >>> SIGKILLed worker pid={proc.pid} mid-trial")
                    done.set()
                    return
        except OSError:
            return
        time.sleep(0.005)


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else "workspace-demo"
    # Show the coordinator's worker-loss line.
    logging.basicConfig(format="  %(name)s: %(message)s", level=logging.WARNING)

    print("Serial baseline ...")
    baseline = make_campaign().run(executor=SerialExecutor())

    print("Distributed run with an injected worker kill ...")
    victim, victim_url = spawn_worker()
    survivor, survivor_url = spawn_worker()
    killed = threading.Event()
    killer = threading.Thread(
        target=kill_when_running, args=(victim, victim_url, killed), daemon=True
    )
    killer.start()
    workspace = Workspace.create(root, "fig5a-smoke")
    try:
        executor = DistributedExecutor(
            [victim_url, survivor_url], backoff_s=0.1
        )
        result_set = make_campaign().run(executor=executor, workspace=workspace)
    finally:
        for proc in (victim, survivor):
            proc.kill()
            proc.wait()
    killer.join(timeout=120)

    key = lambda record: record.name  # noqa: E731
    identical = sorted(result_set.records, key=key) == sorted(
        baseline.records, key=key
    )
    print(f"\n  worker killed mid-trial : {killed.is_set()}")
    print(f"  records == serial       : {identical}")
    print(f"  workspace               : {workspace.run_dir}")
    for name in ("results.jsonl", "manifest.json", "report.md"):
        print(f"    {name:<15} {os.path.getsize(workspace.run_dir / name)} bytes")
    print("\n--- report.md ---\n")
    print(workspace.report_path.read_text(encoding="utf-8"))
    if not identical:
        print("FAIL: distributed records differ from serial", file=sys.stderr)
        return 1
    if not killed.is_set():
        # The campaign finished before the killer saw a running trial — the
        # records are still verified, but the fault injection didn't land.
        print("WARNING: kill did not land mid-trial (slow machine?)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
