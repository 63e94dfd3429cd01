"""End-to-end acceptance checks, one per numbered criterion.

Each test exercises a full behavior at a fixed wall-clock budget and
prints a single summary line (visible with -s or in captured output).
Budgets are generous on purpose: they catch order-of-magnitude
regressions, not scheduler noise.
"""

import random
import statistics
import time

from hswcsp import (
    CorePool,
    HittingProblem,
    SatOracle,
    cost_bounded_hitting_vector,
    exhaustive_mhv,
    generate,
    hits,
    hs_lb,
    hs_lub,
    hs_ub,
    min_cost_hitting_vector,
    optimal_cost,
)
from hswcsp.bruteforce import (
    classify_all_vectors,
    feasible_cost_profiles,
    maximal_cores,
    vector_is_solution,
)
from hswcsp.cdcl import CdclSolver
from hswcsp.sat_oracle import NaiveSolver

OPTIMAL = "OPTIMAL"


def test_criterion_1_reference_instance(fig1):
    per_alg = {}
    for name, alg in (
        ("hs_lb", hs_lb),
        ("hs_ub", hs_ub),
        ("hs_lub", hs_lub),
    ):
        t0 = time.monotonic()
        r = alg(fig1)
        dt = time.monotonic() - t0
        assert r.status == OPTIMAL and r.optimum == 20
        assert dt < 0.1, f"{name} took {dt:.3f}s"
        per_alg[name] = dt

    assert optimal_cost(fig1) == 20
    classification = classify_all_vectors(fig1)
    assert len(classification.cores) == 4
    assert set(classification.cores) == {(0, 0), (0, 5), (5, 0), (5, 5)}
    assert maximal_cores(fig1) == [(5, 5)]
    profiles = set(feasible_cost_profiles(fig1))
    assert profiles == {(0, 20), (20, 0)}
    assert all(sum(p) == 20 for p in profiles)
    times = ", ".join(f"{k} {v * 1000:.0f}ms" for k, v in per_alg.items())
    print(f"criterion 1: PASS (optimum 20 from all three; {times})")


def test_criterion_2_bounds_sandwich_the_optimum(corpus):
    t0 = time.monotonic()
    events = 0
    for w, ws in corpus:
        for alg in (hs_lb, hs_ub, hs_lub):
            r = alg(w)
            assert r.status == OPTIMAL and r.optimum == ws
            for e in r.trace:
                if e.kind == "LB":
                    assert e.value <= ws
                elif e.kind == "UB":
                    assert e.value >= ws
                elif e.kind == "DONE":
                    assert e.value == ws
                events += 1
    dt = time.monotonic() - t0
    assert dt < 60
    print(f"criterion 2: PASS ({events} events on 200 instances, {dt:.1f}s < 60s)")


def test_criterion_3_all_variants_agree(corpus):
    t0 = time.monotonic()
    runs = 0
    for w, ws in corpus:
        assert hs_lb(w).optimum == ws
        assert hs_ub(w).optimum == ws
        r = hs_lub(w, time_limit=30)
        assert r.status == OPTIMAL and r.optimum == ws
        runs += 3
    dt = time.monotonic() - t0
    assert dt < 120
    print(f"criterion 3: PASS ({runs} solves agree on 200 instances, {dt:.1f}s < 120s)")


def _random_hitting_problem(rng):
    m = rng.randint(1, 4)
    levels = []
    for _ in range(m):
        n = rng.randint(1, 4)
        levels.append(tuple(sorted(rng.sample(range(0, 30), n))))
    pool = []
    for _ in range(rng.randint(0, 5)):
        k = tuple(rng.choice(ls) for ls in levels)
        if any(c < ls[-1] for c, ls in zip(k, levels)):
            pool.append(k)
    return levels, pool


def test_criterion_4_hitting_search_matches_enumeration():
    rng = random.Random(20260819)
    t0 = time.monotonic()
    for _ in range(500):
        levels, pool = _random_hitting_problem(rng)
        best = sum(exhaustive_mhv(levels, pool))
        p = HittingProblem(levels, pool)
        got = min_cost_hitting_vector(p)
        assert sum(got) == best and hits(got, pool)
        assert min_cost_hitting_vector(p, prune_at=best) is None
        assert cost_bounded_hitting_vector(p, best) is None
        bounded = cost_bounded_hitting_vector(p, best + 1)
        assert bounded is not None and sum(bounded) == best and hits(bounded, pool)
    dt = time.monotonic() - t0
    assert dt < 30
    print(f"criterion 4: PASS (500 pools, search == enumeration, {dt:.1f}s < 30s)")


def test_criterion_5_pooled_cores_are_maximal_cores(corpus):
    t0 = time.monotonic()
    checked = 0
    for i, (w, _) in enumerate(corpus):
        pool = CorePool()
        r = hs_lb(w, pool=pool, seed_disjoint=(i % 2 == 0))
        assert r.status == OPTIMAL
        for core in pool.cores:
            assert not vector_is_solution(w, core)
            for j, f in enumerate(w.cost_functions):
                pos = f.levels.index(core[j])
                if pos + 1 < len(f.levels):
                    probe = list(core)
                    probe[j] = f.levels[pos + 1]
                    assert vector_is_solution(w, probe)
            checked += 1
    dt = time.monotonic() - t0
    print(f"criterion 5: PASS ({checked} pooled cores all maximal, {dt:.1f}s)")


def test_criterion_6_bound_histories_are_monotone(corpus):
    t0 = time.monotonic()
    traces = 0
    for w, _ in corpus:
        runs = [
            hs_lb(w),
            hs_ub(w),
            hs_lub(w),
            hs_ub(w, seed_disjoint=True),
        ]
        for pos, r in enumerate(runs):
            lbs = [e.value for e in r.trace if e.kind == "LB"]
            ubs = [e.value for e in r.trace if e.kind == "UB"]
            assert lbs == sorted(lbs)
            assert ubs == sorted(ubs, reverse=True)
            traces += 1
            if pos in (1, 3):  # the upper-bound-driven runs
                own_lb = [
                    e for e in r.trace if e.kind == "LB" and e.source != "SEED"
                ]
                assert len(own_lb) <= 1
    dt = time.monotonic() - t0
    print(f"criterion 6: PASS ({traces} traces monotone, {dt:.1f}s)")


def test_criterion_7_oracle_backends_agree_with_brute_force():
    t0 = time.monotonic()
    rng = random.Random(7)
    probes = 0
    for seed in range(1000, 1100):
        w = generate(
            seed=seed,
            num_vars=2 + seed % 3,
            max_dom=2 + seed % 2,
            num_funcs=1 + seed % 4,
            cost_range=8,
            hard_density=0.25 if seed % 2 else 0.0,
        )
        cdcl = SatOracle(w, CdclSolver)
        naive = SatOracle(w, NaiveSolver)
        for _ in range(20):
            v = tuple(rng.choice(f.levels) for f in w.cost_functions)
            expected = vector_is_solution(w, v)
            assert cdcl.solve_under_vector(v).satisfiable == expected
            assert naive.solve_under_vector(v).satisfiable == expected
            probes += 1
    dt = time.monotonic() - t0
    assert probes == 2000 and dt < 60
    print(f"criterion 7: PASS ({probes} probes, both backends == brute, {dt:.1f}s < 60s)")


def test_criterion_8_scales_to_thirty_variables():
    w = generate(seed=1, num_vars=30, max_dom=2, num_funcs=60, cost_range=2)
    assert w.num_vars == 30 and w.m == 60
    t0 = time.monotonic()
    r = hs_lub(w, time_limit=60)
    dt = time.monotonic() - t0
    assert r.status == OPTIMAL
    assert dt < 60
    assert w.evaluate(r.witness).total == r.optimum

    # relative speed of the variants, reported but deliberately not gated:
    # wall times on shared hardware are an observation, not a contract
    times = {"hs_lb": [], "hs_ub": [], "hs_lub": []}
    for seed in range(2000, 2009):
        bench = generate(seed=seed, num_vars=16, max_dom=2, num_funcs=26, cost_range=4)
        for name, alg in (("hs_lb", hs_lb), ("hs_ub", hs_ub), ("hs_lub", hs_lub)):
            res = alg(bench, time_limit=15)
            assert res.status == OPTIMAL
            times[name].append(res.wall_ms)
    medians = {k: statistics.median(v) for k, v in times.items()}
    report = ", ".join(f"{k} {v:.0f}ms" for k, v in medians.items())
    print(
        f"criterion 8: PASS (30 vars / 60 functions optimal in {dt:.1f}s < 60s;"
        f" 16-var benchmark medians: {report})"
    )
