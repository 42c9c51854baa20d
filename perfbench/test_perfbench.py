"""Small-size tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import workloads as wl
from tracing import LAYER_METRICS, Tracer

import robustrates.mc
import robustrates.paths

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
RUN = wl.ROOT / "perfbench" / "run.py"
SMALL_PATHS = 256


def _run(workload, trace, cwd=wl.ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_per_layer_metrics_match_the_tracer():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in LAYER_METRICS
    ]


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, kind):
    proc = _run("gheat", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines[:-1])
    assert any(line.startswith("failed_ratio 0 ") for line in lines)


def test_fails_without_the_library(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = _run("gap", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_op_ref_is_the_median_ratio_to_the_reference():
    import run

    res = {"headline_error": 1e-3, "op_s": [1.0, 2.0, 4.0], "ref_s": [0.5, 0.5, 1.0],
           "updates_per_op": 10, "peak_rss_mb": 1.0}
    m = run.end_to_end(res, [0.5, 0.7, 0.6])
    assert m["op_ref"] == 4.0  # ratios 2, 4, 4
    assert m["updates_per_ref"] == pytest.approx(10 * 3 / 10)
    assert m["op_s"] == 2.0 and m["setup_s"] == 0.6


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_reference_kernel_is_deterministic(name):
    ref = wl.WORKLOADS[name].reference
    first = ref()
    assert np.isfinite(first).all()
    assert np.array_equal(first, ref())


def _answer(name, seed=0):
    size = 40 if name == "gheat" else SMALL_PATHS
    w = wl.WORKLOADS[name]
    inputs = w.build(seed, size)
    answer = w.run(inputs)
    assert w.check(inputs, answer) == []
    return w, inputs, answer


def test_gap_check_rejects_perturbed_answers():
    w, inputs, rep = _answer("gap")
    assert w.check(inputs, replace(rep, gap=rep.gap + 6 * rep.gap_se))
    stats = [
        replace(s, mean=s.mean + 6 * s.se) if s.scenario_id == "const[0.005]" else s
        for s in rep.per_scenario
    ]
    assert w.check(inputs, replace(rep, per_scenario=tuple(stats)))
    assert w.check(inputs, replace(rep, gap=2 * rep.gap_se))  # not significant


def _shift_first_row(reports, n_se=6.0):
    first = reports[0]
    rows = list(first.checkpoints)
    rows[0] = replace(rows[0], mean=rows[0].mean + n_se * rows[0].se)
    return (replace(first, checkpoints=tuple(rows)),) + tuple(reports[1:])


@pytest.mark.parametrize("name", ["verify", "adaptive"])
def test_martingale_check_rejects_perturbed_answers(name):
    w, inputs, ans = _answer(name)
    assert w.check(inputs, replace(ans, shifted=_shift_first_row(ans.shifted)))
    rep = ans.shifted[0]
    late = replace(rep, terminal_max_abs_error=6.0 / inputs.cfg.n_steps)
    assert w.check(inputs, replace(ans, shifted=(late,) + ans.shifted[1:]))


def test_power_fixture_must_fail():
    w, inputs, ans = _answer("verify")
    assert all(not r.all_pass for r in ans.power)
    passing = ans.shifted[:2]  # shifted edges agree with the reference
    problems = w.check(inputs, replace(ans, power=passing))
    assert any("power fixture" in p for p in problems)


def test_gheat_check_rejects_two_percent_error():
    w, inputs, values = _answer("gheat")
    for i in range(len(values)):
        off = list(values)
        off[i] *= 1.02
        assert w.check(inputs, tuple(off))


def test_closed_forms_match_frozen_oracles():
    # 40-digit values frozen in the acceptance suite
    assert wl.classical_price(0.02) == pytest.approx(0.98747036485714169, abs=1e-15)
    assert wl.classical_price(0.005) == pytest.approx(0.98743924313780113, abs=1e-15)


def test_digest_is_stable_and_sensitive():
    rows = [["a", "0.10000000000000001"]]
    assert wl.digest(rows) == wl.digest(json.loads(json.dumps(rows)))
    assert wl.digest(rows) != wl.digest([["a", "0.1"]])


def test_tracer_spans_nest_and_restore():
    w = wl.WORKLOADS["gap"]
    inputs = w.build(0, SMALL_PATHS)
    original = robustrates.mc._simulate
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.operation():
            w.run(inputs)
    finally:
        tracer.uninstall()
    assert robustrates.mc._simulate is original
    assert tracer.nesting_problems() == []
    m = tracer.per_op()[0]
    assert all(v >= 0 for v in m.values())
    assert m["paths.simulate.calls"] == len(inputs.scenarios)
    assert m["mc.chunks"] == len(inputs.scenarios)
    assert m["mc.normals_reuse_ratio"] == pytest.approx(1 / len(inputs.scenarios))
    assert m["scenarios.step_sigma.calls"] == 0


def test_missing_boundary_is_absent_not_zero(monkeypatch):
    monkeypatch.delattr(robustrates.paths, "_draw_normals")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == {"paths.draw_normals"}
    assert tracer.absent_metrics() == {
        "paths.draw_normals.s", "paths.normals_drawn", "paths.array_bytes", "mc.normals_reuse_ratio"
    }
    with tracer.operation():
        pass
    assert not tracer.absent_metrics() & set(tracer.per_op()[0])
