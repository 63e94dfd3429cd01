"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hswcsp.engine as engine  # noqa: E402
import hswcsp.hitting as hitting  # noqa: E402
import run as bench  # noqa: E402
from hswcsp import generate, parse_wcsp, wcsp_to_text  # noqa: E402
from layer_trace import LayerStats, LayerTracer  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _instance(seed, **params):
    text = wcsp_to_text(generate(seed, **params))
    return bench.Instance(seed, text, parse_wcsp(text))


def test_traced_solves_match_untraced():
    for seed in (3, 4):
        inst = _instance(seed, num_vars=10, max_dom=2, num_funcs=16, cost_range=3)
        plain = {s: bench.run_solve(s, inst, 30.0, True) for s in bench.STRATEGIES}
        tracer = LayerTracer()
        stats = {s: LayerStats() for s in bench.STRATEGIES}
        with tracer.install():
            traced = {
                s: bench.run_solve(s, inst, 30.0, True, tracer, stats[s])
                for s in bench.STRATEGIES
            }
        for s in bench.STRATEGIES:
            assert not plain[s].errors and not traced[s].errors
            assert traced[s].optimum == plain[s].optimum
            if s in bench.DIGESTED:
                assert traced[s].digest == plain[s].digest
        lb = stats["hs_lb"].metrics()
        assert lb["cdcl.calls"] == lb["sat_oracle.calls"] > 0
        assert lb["hitting.min_cost_calls"] > 0 and lb["hitting.bounded_calls"] == 0
        assert stats["hs_ub"].metrics()["hitting.min_cost_calls"] == 0
    assert engine.min_cost_hitting_vector is hitting.min_cost_hitting_vector
    assert engine.HittingProblem is hitting.HittingProblem


def test_same_seed_same_instances():
    for workload in bench.WORKLOADS.values():
        first, _ = bench.set_up(workload)
        again, _ = bench.set_up(workload)
        assert [i.text for i in first] == [i.text for i in again]


def test_checks_reject_bad_results():
    inst = _instance(5, num_vars=6, max_dom=2, num_funcs=8, cost_range=3)
    good = engine.hs_lb(inst.w)
    inst.reference = good.optimum
    assert bench.check_result(inst, good, must_prove=True) == []
    worst = max(inst.w.assignments(), key=lambda a: inst.w.evaluate(a).total)
    bad_witness = SimpleNamespace(**{**good.__dict__, "witness": worst})
    assert bench.check_result(inst, bad_witness, must_prove=True)
    inflated = SimpleNamespace(**{**good.__dict__, "lb": good.ub + 1})
    assert bench.check_result(inst, inflated, must_prove=False)
    timeout = SimpleNamespace(**{**good.__dict__, "status": "TIMEOUT"})
    assert bench.check_result(inst, timeout, must_prove=True)
    wrong = SimpleNamespace(**{**good.__dict__, "optimum": good.optimum + 1})
    assert bench.check_result(inst, wrong, must_prove=True)

    a = bench.Solve("hs_lb", 5, status="OPTIMAL", lb=3, ub=3, optimum=3)
    b = bench.Solve("hs_ub", 5, status="OPTIMAL", lb=4, ub=4, optimum=4)
    bench.cross_check([a, b])
    assert a.errors and b.errors


def test_run_metrics_sum_instance_medians():
    def solve(strategy, wall, slowdown=2.0):
        return bench.Solve(strategy, 0, wall_s=wall, slowdown=slowdown)

    whole = {(s, i): solve(s, 1.0 + i) for s in bench.STRATEGIES for i in range(2)}
    again = {(s, i): solve(s, 3.0 + i) for s in bench.STRATEGIES for i in range(2)}
    cut = {("hs_lb", 0): solve("hs_lb", 9.0)}  # a last pass stopped early
    m = bench.run_metrics([whole, again, cut])
    # hs_lb: instance 0 has median(0.5, 1.5, 4.5) = 1.5, instance 1 has (1 + 2) / 2
    assert m["hs_lb.solve_s"] == 1.5 + 1.5
    assert m["hs_ub.solve_s"] == 1.0 + 1.5


def test_speed_sampler_samples_during_a_solve():
    with bench.SpeedSampler() as sampler:
        end = time.perf_counter() + 5 * bench.SAMPLE_PERIOD_S
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(sampler.samples) >= 2
    assert all(x > 0 for x in sampler.samples)
    assert bench.host_slowdown() > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = list(bench.END_TO_END)
    per_layer = bench.per_layer_names()
    assert [m["name"] for m in spec["end_to_end"]] == end_to_end
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)
    names = end_to_end + per_layer
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == bench.unit_of(m["name"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "anytime", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
