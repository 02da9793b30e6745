"""Tests of the benchmark's own machinery (not part of the library suite).

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import struct
import sys

import numpy as np
import pytest
import clirun
import gate
import run
import speed
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))


def test_perturbed_reference_value_is_caught():
    """Every stored scan_1d value passes as is and fails once nudged by
    a few stated tolerances."""
    ref = run.load_reference("scan_1d", 0)
    checked = 0
    for op, (status, value, err) in ref.items():
        if status != "ok":
            continue
        assert gate.judge(status, value, err, [status, value, err],
                          1e-6)[0] == gate.OK
        nudged = value * (1.0 + 3.0 * (1e-6 + 2.0 * err + gate.FLOOR))
        verdict, detail = gate.judge(status, nudged, err,
                                     [status, value, err], 1e-6)
        assert verdict == gate.WRONG, op
        checked += 1
    assert checked > 500


def test_value_within_tolerance_and_errors_passes():
    ref = ["ok", 2.0e5, 1e-7]
    inside = 2.0e5 * (1.0 + 0.9 * (1e-6 + 1e-7 + 1e-7))
    assert gate.judge("ok", inside, 1e-7, ref, 1e-6)[0] == gate.OK
    outside = 2.0e5 * (1.0 + 1.1 * (1e-6 + 1e-7 + 1e-7 + gate.FLOOR))
    assert gate.judge("ok", outside, 1e-7, ref, 1e-6)[0] == gate.WRONG


def test_status_rules():
    ok = ["ok", 1.0, 0.0]
    assert gate.judge("error:MemoryError", None, None, ok, 1e-6)[0] \
        == gate.FAILED
    assert gate.judge("nonconvergent", None, 1.0, ok, 1e-6)[0] == gate.FAILED
    assert gate.judge("degenerate", None, None, ok, 1e-6)[0] == gate.WRONG
    known = ["error:MemoryError", None, None]
    assert gate.judge("error:MemoryError", None, None, known, 1e-6)[0] \
        == gate.KNOWN_FAILURE
    assert gate.judge("ok", 3.0, 0.0, known, 1e-6)[0] == gate.UNCHECKED
    degenerate = ["degenerate", None, None]
    assert gate.judge("degenerate", None, None, degenerate, 1e-6)[0] \
        == gate.OK


def _exclusion_result(rows, determinism=None):
    return {"op": "exclusion:demo", "status": "ok", "determinism":
            determinism, "payload": {"rows": rows}}


def test_cli_exclusion_rows_compared_by_value():
    rows = [[1e-9, 3.5e4, 2e-8, "ok"], [1e-8, None, None, "degenerate"]]
    ref = {"status": "ok", "payload": {"rows": gate.round_tree(rows)}}
    last_bits = [[1e-9, 3.5e4 * (1 + 1e-13), 2e-8, "ok"], rows[1]]
    assert clirun.judge(_exclusion_result(last_bits), ref)[0] == gate.OK
    perturbed = [[1e-9, 3.5e4 * (1 + 1e-5), 2e-8, "ok"], rows[1]]
    assert clirun.judge(_exclusion_result(perturbed), ref)[0] == gate.WRONG
    status = [rows[0], [1e-8, None, None, "ok"]]
    assert clirun.judge(_exclusion_result(status), ref)[0] == gate.WRONG
    assert clirun.judge(_exclusion_result(rows, determinism=False),
                        ref)[0] == gate.FAILED


def test_cli_trajectory_perturbation_is_caught(tmp_path):
    steps, ntraj = 64, 2
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(ntraj, 2, steps))

    def write(path, data):
        with open(path, "wb") as fh:
            fh.write(struct.pack("<8sIIQQd32s", b"CSLTRJ01", 1, ntraj, steps,
                                 7, 1e-6, bytes(32)))
            fh.write(np.arange(steps, dtype="<f8").tobytes())
            fh.write(data.astype("<f8").tobytes())

    write(tmp_path / "a.bin", xs)
    ref = gate.round_tree(gate.parse_trajectories(tmp_path / "a.bin"))
    assert gate.compare_trajectories(
        gate.parse_trajectories(tmp_path / "a.bin"), ref, 1e-6) == []
    bumped = xs.copy()
    bumped[1, 0, steps - 1] += 1e-3
    write(tmp_path / "b.bin", bumped)
    assert gate.compare_trajectories(
        gate.parse_trajectories(tmp_path / "b.bin"), ref, 1e-6)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail(list(range(1, 20001)))[0] == "p99"
    assert run.tail(list(range(1, 2001)))[0] == "p99"
    assert run.tail(list(range(1, 101)))[0] == "p90"
    assert run.tail(list(range(1, 21)))[0] == "p50"
    assert run.tail([3.0, 1.0, 2.0]) == ("max", 3.0)


def test_latencies_are_scaled_by_the_calibration_of_their_unit():
    rounds = [[{"op": "a", "latency": 2.0, "scale": 0.5}],
              [{"op": "a", "latency": 1.0, "scale": 1.5}]]
    assert run.latencies(rounds) == {"a": [1.0, 1.5]}
    assert run.latencies(rounds, scaled=False) == {"a": [2.0, 1.0]}


def test_speed_factor_uses_the_samples_on_either_side(monkeypatch):
    clock = iter([0.0, 0.02, 1.0, 1.06, 2.0, 2.04])
    monkeypatch.setattr(speed.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(speed, "kernel", lambda *arrays: 0.0)
    cpus = os.sched_getaffinity(0)
    try:
        sp = speed.Speed(stream=False)
        assert os.sched_getaffinity(0) == {sp.home}
        for _ in range(3):
            sp.tick()
    finally:
        os.sched_setaffinity(0, cpus)
    # samples of 0.02, 0.06 and 0.04 s taken around t = 0, 1 and 2 s
    assert sp.factor(0.1, 0.9) == pytest.approx(sp.nominal / 0.04)
    assert sp.factor(1.1, 1.9) == pytest.approx(sp.nominal / 0.05)
    assert sp.factor(0.1, 1.9) == pytest.approx(sp.nominal / 0.03)


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None], ["d", 5.0, 6.0, 0, None]]
    dur, self_t = tracer.span_times(spans)
    assert list(dur) == [10.0, 3.0, 1.0, 1.0]
    assert list(self_t) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_restores_the_library():
    from cslbounds import cslnoise, exclusion, special
    before = (special.sinc, cslnoise.sinc, exclusion.lambda_upper_bound)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cslnoise.sinc is not before[1]
        cslnoise.sinc(np.zeros(5))
    finally:
        tr.uninstall()
    assert (special.sinc, cslnoise.sinc,
            exclusion.lambda_upper_bound) == before
    assert tr.counts["special.sinc.points"] == 5


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == tracer.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(
        run.wl.WORKLOADS)
