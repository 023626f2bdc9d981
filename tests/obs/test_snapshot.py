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


def test_sockets_and_rpc_clients_share_their_endpoints_recorders():
    """Every socket on an endpoint records into the endpoint's one
    ``sock.<addr>`` recorder and every RPC client into its one
    ``rpc.client.<addr>`` recorder, so opening and closing sockets
    creates no recorder.  The recorders die with the simulation: none
    is held past it by the registry or by a closed socket."""
    import gc
    import weakref

    from repro.metrics.recorder import iter_recorders
    from repro.net.rpc import RpcClient
    from repro.sim import Simulator
    from repro.testing import make_net

    sim = Simulator()
    net = make_net(sim)
    enabled = gc.isenabled()
    gc.disable()
    try:
        ep = net.udp["alpha"]
        sock = ep.socket()
        client = RpcClient(sock)
        assert sock.stats is ep.sock_stats
        assert client.stats is ep.rpc_client_stats
        assert sock.stats.name == "sock.alpha"
        assert client.stats.name == "rpc.client.alpha"
        before = sum(1 for _ in iter_recorders())

        def churn():
            for _ in range(1000):
                s = ep.socket()
                assert RpcClient(s).stats is client.stats
                yield s.recv(timeout=0.001)
                s.close()

        sim.run(until=sim.process(churn()))
        assert sum(1 for _ in iter_recorders()) == before
        assert sock.stats.count("rx.timeouts") == 1000
        sock.close()
        refs = [weakref.ref(sock.stats), weakref.ref(client.stats)]
        del sock, client, ep, churn, net, sim
        gc.collect()  # the NIC/endpoint/network topology is cyclic
        assert [ref() for ref in refs] == [None, None]
        names = {r.name for r in iter_recorders()}
        assert "sock.alpha" not in names
        assert "rpc.client.alpha" not in names
    finally:
        if enabled:
            gc.enable()


def _fig7_snapshot(path):
    """``--metrics-out`` of a tiny fig7 run, in a fresh interpreter (the
    snapshot walks every live recorder in the process)."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run(
        [sys.executable, "-m", "repro", "fig7", "--scale-lu", "1/1024",
         "--scale-dmine", "1/1024", "--metrics-out", str(path)],
        env=env, check=True, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, timeout=300)
    return json.loads(path.read_text())


def test_fig7_snapshot_matches_per_socket_recorders(tmp_path):
    """Sharing one recorder per endpoint changes no counter or sample
    summary of a run's snapshot: ``golden/metrics_fig7_1024.json`` was
    recorded when every socket and RPC client owned its own recorder,
    and only the ``instances`` of the ``sock.*`` / ``rpc.client.*``
    groups (how many recorders were merged) may differ.  Regenerate
    after an intentional behavior change with ``REPRO_REGOLDEN=1``."""
    import os

    golden_path = os.path.join(os.path.dirname(__file__), "golden",
                               "metrics_fig7_1024.json")
    fresh = _fig7_snapshot(tmp_path / "m.json")
    if os.environ.get("REPRO_REGOLDEN"):
        with open(golden_path, "w") as fp:
            json.dump(fresh, fp, sort_keys=True, indent=1)
            fp.write("\n")
    with open(golden_path) as fp:
        golden = json.load(fp)
    assert fresh["meta"] == golden["meta"]
    assert sorted(fresh["recorders"]) == sorted(golden["recorders"])
    for name, group in golden["recorders"].items():
        now = fresh["recorders"][name]
        if name.startswith(("sock.", "rpc.client.")):
            # one recorder per endpoint of each simulation fig7 runs
            assert 1 <= now["instances"] <= 4, name
        else:
            assert now["instances"] == group["instances"], name
        assert now["counters"] == group["counters"], name
        assert now["samples"] == group["samples"], name


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
