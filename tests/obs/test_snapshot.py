"""Tests for metrics snapshots: grouping, merging, summaries, files."""

import json

import pytest

from repro.metrics.recorder import Recorder, start_collection, \
    stop_collection
from repro.obs.snapshot import (group_name, merged_snapshot,
                                recorder_snapshot, snapshot, write_snapshot)


def test_group_name_strips_ephemeral_parts():
    assert group_name("rpc.client.ws03:5001") == "rpc.client.ws03"
    assert group_name("cmd#12") == "cmd"
    assert group_name("sock.alpha:17#3") == "sock.alpha"
    assert group_name("disk") == "disk"
    assert group_name("") == "recorder"


def test_recorder_snapshot_counters_and_summaries():
    r = Recorder("x")
    r.add("ops", 3)
    for v in (1.0, 2.0, 3.0, 4.0):
        r.sample("lat", v)
    snap = recorder_snapshot(r)
    assert snap["instances"] == 1
    assert snap["counters"] == {"ops": 3}
    lat = snap["samples"]["lat"]
    assert lat["count"] == 4
    assert lat["mean"] == pytest.approx(2.5)
    assert lat["min"] == 1.0 and lat["max"] == 4.0
    assert lat["p50"] == pytest.approx(2.5)
    assert lat["p99"] == pytest.approx(3.97)


def test_merged_snapshot_sums_counters_and_pools_samples():
    a, b = Recorder("x:1"), Recorder("x:2")
    a.add("ops", 2)
    b.add("ops", 3)
    a.sample("lat", 1.0)
    b.sample("lat", 3.0)
    snap = merged_snapshot([a, b])
    assert snap["instances"] == 2
    assert snap["counters"] == {"ops": 5}
    assert snap["samples"]["lat"]["count"] == 2
    assert snap["samples"]["lat"]["mean"] == pytest.approx(2.0)


def test_snapshot_groups_live_recorders():
    collected = start_collection()
    try:
        for port in (5001, 5002, 5003):
            Recorder(f"grouptest.sock:{port}").add("sent")
    finally:
        stop_collection(collected)
    snap = snapshot(meta={"k": "v"})
    assert snap["meta"] == {"k": "v"}
    group = snap["recorders"]["grouptest.sock"]
    assert group["instances"] == 3
    assert group["counters"]["sent"] == 3
    del collected


def test_collection_keeps_recorders_alive_for_snapshot():
    def make_and_drop():
        rec = Recorder("ephemeral.test")
        rec.add("hits", 7)
        del rec

    collected = start_collection()
    try:
        make_and_drop()
        snap = snapshot()
        assert snap["recorders"]["ephemeral.test"]["counters"]["hits"] == 7
    finally:
        stop_collection(collected)


def test_write_snapshot_is_sorted_json(tmp_path):
    collected = start_collection()
    try:
        Recorder("writetest").add("n", 1)
        path = tmp_path / "run.json"
        count = write_snapshot(str(path), meta={"exp": "unit"})
        text = path.read_text()
        parsed = json.loads(text)
        assert count == len(parsed["recorders"])
        assert "writetest" in parsed["recorders"]
        assert text.endswith("\n")
        assert json.dumps(parsed, sort_keys=True, indent=1) + "\n" == text
    finally:
        stop_collection(collected)


def test_unheld_recorder_disappears_when_its_socket_is_freed():
    """A recorder no collection holds dies with its owner at socket
    close: refcounting frees it even with the cyclic collector off, so
    a snapshot does not depend on when the collector last ran."""
    import gc

    from repro.metrics.recorder import iter_recorders
    from repro.sim import Simulator
    from repro.testing import make_net

    sim = Simulator()
    net = make_net(sim)
    enabled = gc.isenabled()
    gc.disable()
    try:
        sock = net.udp["alpha"].socket()
        name = sock.stats.name
        assert name in {r.name for r in iter_recorders()}

        def recv_and_close():
            yield sock.recv(timeout=0.01)
            sock.close()

        sim.run(until=sim.process(recv_and_close()))
        del sock
        assert name not in {r.name for r in iter_recorders()}
    finally:
        if enabled:
            gc.enable()


def test_cli_metrics_snapshot_is_identical_with_gc_disabled(tmp_path):
    """A small CLI run's ``--metrics-out`` snapshot does not depend on
    when (or whether) the cyclic collector runs."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    runs = {}
    for mode in ("enable", "disable"):
        out = tmp_path / f"gc-{mode}.json"
        code = (f"import gc, sys; gc.{mode}(); from repro.cli import main; "
                f"sys.exit(main(['fig7', '--scale-lu', '1/1024', "
                f"'--scale-dmine', '1/1024', '--metrics-out', {str(out)!r}]))")
        runs[out] = subprocess.Popen([sys.executable, "-c", code], env=env,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE)
    for proc in runs.values():
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()[-2000:]
    enabled, disabled = (path.read_bytes() for path in runs)
    assert json.loads(enabled)["recorders"]
    assert enabled == disabled
