import io
import math
from types import SimpleNamespace

import pytest

import hswcsp.engine as engine_mod
from hswcsp.cdcl import CdclSolver
from hswcsp import (
    INF,
    INFEASIBLE,
    OPTIMAL,
    TIMEOUT,
    CorePool,
    Encoding,
    SatOracle,
    SearchAborted,
    SolveResult,
    TraceWriter,
    Wcsp,
    generate,
    hs_lb,
    hs_lub,
    hs_ub,
    seed_disjoint_cores,
)
from hswcsp.sat_oracle import _LOAD_BATCH

ALGS = [
    ("hs_lb", hs_lb),
    ("hs_ub", hs_ub),
    ("hs_lub", lambda w, **kw: hs_lub(w, deterministic=True, **kw)),
]


def shape(result) -> list[tuple[str, int, str]]:
    return [(e.kind, e.value, e.source) for e in result.trace]


# ---------------------------------------------------------------- golden runs


def test_hs_lb_fig1_trace(fig1):
    r = hs_lb(fig1)
    assert r.status == OPTIMAL and r.optimum == 20
    assert shape(r) == [
        ("UB", 25, "LB_WORKER"),   # SAT probe met while growing (0,0)
        ("CORE", 1, "LB_WORKER"),  # the unique maximal core (5,5)
        ("LB", 20, "LB_WORKER"),   # cost of the next optimal hitter
        ("UB", 20, "LB_WORKER"),   # that hitter probes SAT
        ("DONE", 20, "MAIN"),
    ]
    assert r.iterations == {"lb": 2}
    assert r.cores_used == 1
    assert fig1.evaluate(r.witness).total <= 20


def test_hs_ub_fig1_trace(fig1):
    r = hs_ub(fig1)
    assert r.status == OPTIMAL and r.optimum == 20
    assert shape(r) == [
        ("UB", 25, "UB_WORKER"),
        ("CORE", 1, "UB_WORKER"),
        ("UB", 20, "UB_WORKER"),
        ("LB", 20, "UB_WORKER"),  # nothing hits the pool below 20
        ("DONE", 20, "MAIN"),
    ]
    assert r.iterations == {"ub": 2}
    assert r.cores_used == 1


def test_hs_lub_deterministic_fig1_trace(fig1):
    # deterministic is accepted and ignored: the default, which the CLI
    # runs, is the same round-robin
    for kw in ({}, {"deterministic": True}, {"deterministic": False}):
        r = hs_lub(fig1, **kw)
        assert r.status == OPTIMAL and r.optimum == 20, kw
        # round-robin: lb grows the core, ub reuses it before lb probes again
        assert shape(r) == [
            ("UB", 25, "LB_WORKER"),
            ("CORE", 1, "LB_WORKER"),
            ("UB", 20, "UB_WORKER"),
            ("LB", 20, "LB_WORKER"),
            ("DONE", 20, "MAIN"),
        ], kw
        assert r.iterations == {"lb": 1, "ub": 1}, kw
        assert r.cores_used == 1, kw


def test_two_blocks_optimum(two_blocks):
    for _, alg in ALGS:
        r = alg(two_blocks)
        assert r.status == OPTIMAL and r.optimum == 8
        assert two_blocks.evaluate(r.witness).total == 8


# ---------------------------------------------------------------- termination


def test_zero_time_limit_times_out_clean(fig1):
    r = hs_lb(fig1, time_limit=0)
    assert r.status == TIMEOUT and r.optimum is None
    assert (r.lb, r.ub) == (0, INF)
    assert r.trace == () and r.iterations == {} and r.cores_used == 0
    assert r.witness is None


@pytest.mark.parametrize("name, alg", ALGS)
def test_nan_time_limit_is_rejected(fig1, name, alg):
    # a nan deadline would never expire
    with pytest.raises(ValueError, match="time_limit"):
        alg(fig1, time_limit=math.nan)


def test_zero_time_limit_keeps_preset_bounds(fig1):
    pool = CorePool()
    pool.raise_lb(3, "MAIN")
    pool.offer_ub(7, (0, 1, 1), "MAIN")
    r = hs_ub(fig1, pool=pool, time_limit=0)
    assert r.status == TIMEOUT
    assert (r.lb, r.ub) == (3, 7)
    assert r.witness == (0, 1, 1)


def test_warm_restart_is_instant(fig1):
    pool = CorePool()
    first = hs_lb(fig1, pool=pool)
    assert first.status == OPTIMAL
    again = hs_ub(fig1, pool=pool)
    assert again.status == OPTIMAL and again.optimum == 20
    assert again.iterations == {} and shape(again) == [("DONE", 20, "MAIN")]
    assert again.witness == first.witness


def test_a_solve_detaches_its_trace_sink(fig1):
    # the pool outlives the solve; its sink must not outlive the trace file
    pool = CorePool()
    buf = io.StringIO()
    r = hs_lb(fig1, pool=pool, trace=TraceWriter(buf).write)
    assert r.status == OPTIMAL
    buf.close()
    assert pool.add_core((0, 5), "MAIN")
    last = pool.events[-1]
    assert (last.kind, last.value, last.source) == ("CORE", 2, "MAIN")


@pytest.mark.parametrize("name, alg", ALGS)
def test_infeasible_instance(infeasible, name, alg):
    r = alg(infeasible)
    assert r.status == INFEASIBLE and r.optimum is None
    assert (r.lb, r.ub) == (0, INF)
    assert r.trace == () and r.witness is None
    assert r.iterations == {}


def test_bogus_saturated_pool_reports_infeasible(fig1):
    # a pooled core at every maximum level claims even the loosest vector
    # fails; the solver takes the pool at its word
    for alg, iterations in (
        (hs_lb, {"lb": 0}),
        (hs_ub, {"ub": 0}),
        (hs_lub, {"lb": 0, "ub": 0}),
    ):
        pool = CorePool()
        pool.add_core((20, 20), "MAIN")
        r = alg(fig1, pool=pool)
        assert r.status == INFEASIBLE
        assert r.iterations == iterations


def test_bogus_saturated_pool_under_a_ub_proves_the_ub(fig1):
    # nothing hits the pool below ub, so every loop takes ub as optimal
    witness = (1, 0, 0)
    assert fig1.evaluate(witness).total == 25
    for alg, iterations in (
        (hs_lb, {"lb": 0}),
        (hs_ub, {"ub": 0}),
        (hs_lub, {"lb": 0, "ub": 0}),
    ):
        pool = CorePool()
        pool.add_core((20, 20), "MAIN")
        pool.offer_ub(25, witness, "MAIN")
        r = alg(fig1, pool=pool)
        assert r.status == OPTIMAL and r.optimum == 25, alg.__name__
        assert r.witness == witness
        assert r.iterations == iterations


def _single_raise(m: int = 990):
    """m binary variables, each paying 1 for its only allowed value, and a
    factory for pools pre-filled with their m single-raise cores."""
    w = Wcsp.build(
        m,
        [2] * m,
        [((i,), {(0,): 0, (1,): 1}) for i in range(m)],
        hard=[((i,), [(0,)]) for i in range(m)],
        top=10,
        name="single-raise",
    )
    cores = [tuple(0 if j == i else 1 for j in range(m)) for i in range(m)]

    def prefilled() -> CorePool:
        pool = CorePool()
        for core in cores:
            pool.add_core(core, "MAIN")
        return pool

    return w, prefilled


def test_time_limit_with_a_large_pool():
    """With 990 pre-pooled cores, a loop that starts adds about a million
    core entries to the hitting problem, polling the clock between cores.
    A short time limit still returns clean bounds well within a second or
    two of the deadline, and with no limit each strategy proves the
    optimum."""
    w, prefilled = _single_raise()
    for name, alg in ALGS:
        r = alg(w, pool=prefilled(), time_limit=0.05)
        assert r.status == TIMEOUT and (r.lb, r.ub) == (0, INF), name
        assert r.wall_ms < 2000, name
        r = alg(w, pool=prefilled())
        assert r.status == OPTIMAL and r.optimum == w.m, name
        assert w.evaluate(r.witness).total == w.m, name


def test_core_sync_polls_the_halt_predicate(monkeypatch):
    """On a clock that moves only when a core enters the hitting problem,
    1 s per core, a 2.5 s limit stops every strategy after the third of the
    990 pooled cores, before any search."""
    w, prefilled = _single_raise()
    now = [0.0]
    monkeypatch.setattr(engine_mod, "time", SimpleNamespace(monotonic=lambda: now[0]))
    problems = []

    class Ticking(engine_mod.HittingProblem):
        def __init__(self, levels, pool=()):
            problems.append(self)
            super().__init__(levels, pool)

        def add_cores(self, pool):
            pool = list(pool)
            now[0] += len(pool)
            super().add_cores(pool)

    monkeypatch.setattr(engine_mod, "HittingProblem", Ticking)
    for name, alg in ALGS:
        now[0] = 0.0
        r = alg(w, pool=prefilled(), time_limit=2.5)
        assert r.status == TIMEOUT and (r.lb, r.ub) == (0, INF), name
        assert len(problems) == 1 and len(problems.pop().cores) <= 3, name


def _assert_build_stops_within_a_batch(monkeypatch, w, now):
    """Every strategy, with a 300.5 s limit on the clock `now`, stops
    within one batch of clauses past the limit, before any SAT call."""
    def no_query(*args, **kwargs):
        pytest.fail("the oracle was queried")

    monkeypatch.setattr(CdclSolver, "solve", no_query)
    for name, alg in ALGS:
        now[0] = 0.0
        r = alg(w, time_limit=300.5)
        assert r.status == TIMEOUT and (r.lb, r.ub) == (0, INF), name
        assert 300.5 <= now[0] < 300.5 + _LOAD_BATCH, name


def test_oracle_build_polls_the_halt_predicate(monkeypatch):
    """On a clock that moves only when the SAT backend takes a clause, 1 s
    per clause, a 300.5 s limit stops every strategy within one batch of
    the limit, while the oracle loads the 990-variable instance's 3,960
    clauses, before any SAT call."""
    w, _ = _single_raise()
    now = [0.0]
    monkeypatch.setattr(engine_mod, "time", SimpleNamespace(monotonic=lambda: now[0]))
    add_clause = CdclSolver.add_clause

    def ticking(self, lits):
        now[0] += 1
        return add_clause(self, lits)

    monkeypatch.setattr(CdclSolver, "add_clause", ticking)
    _assert_build_stops_within_a_batch(monkeypatch, w, now)


def test_clause_generation_polls_the_halt_predicate(monkeypatch):
    """The same, on a clock that moves only when the encoding generates a
    clause: the clauses past the batch that crosses the limit are never
    built."""
    w, _ = _single_raise()
    now = [0.0]
    monkeypatch.setattr(engine_mod, "time", SimpleNamespace(monotonic=lambda: now[0]))
    clauses = Encoding.clauses

    def ticking(self):
        for c in clauses(self):
            now[0] += 1
            yield c

    monkeypatch.setattr(Encoding, "clauses", ticking)
    _assert_build_stops_within_a_batch(monkeypatch, w, now)


# ---------------------------------------------------------------- seeding


def test_seeding_fig1_closes_the_gap(fig1):
    pool = CorePool()
    assert seed_disjoint_cores(fig1, pool, SatOracle(fig1)) == 1
    assert pool.cores == [(5, 5)]
    assert (pool.lb, pool.ub) == (20, 20)


def test_seeded_solve_needs_no_iterations(fig1):
    r = hs_lb(fig1, seed_disjoint=True)
    assert r.status == OPTIMAL and r.optimum == 20
    assert r.iterations == {"lb": 0}
    assert shape(r) == [
        ("UB", 25, "SEED"),
        ("CORE", 1, "SEED"),
        ("UB", 20, "SEED"),
        ("LB", 20, "SEED"),
        ("DONE", 20, "MAIN"),
    ]


def test_seeded_two_blocks_trace(two_blocks):
    r = hs_lb(two_blocks, seed_disjoint=True)
    assert r.status == OPTIMAL and r.optimum == 8
    assert shape(r) == [
        ("UB", 12, "SEED"),
        ("CORE", 1, "SEED"),
        ("CORE", 2, "SEED"),
        ("UB", 10, "SEED"),
        ("LB", 8, "SEED"),
        ("UB", 8, "LB_WORKER"),
        ("DONE", 8, "MAIN"),
    ]
    assert r.iterations == {"lb": 1}
    assert r.cores_used == 2


def test_seeding_stops_at_a_sat_first_probe():
    # one function: the all-minimum vector is always satisfiable
    w = Wcsp.build(1, [2], [((0,), {(0,): 0, (1,): 5})], top=10, name="one")
    pool = CorePool()
    assert seed_disjoint_cores(w, pool, SatOracle(w)) == 0
    assert pool.cores == [] and pool.lb == 0 and pool.ub == 0


def test_seeding_stops_when_a_core_has_no_fresh_component(infeasible):
    # every probe is UNSAT, so the first core grows to the maximum vector
    # and leaves nothing to separate the next probe on
    pool = CorePool()
    assert seed_disjoint_cores(infeasible, pool, SatOracle(infeasible)) == 1
    assert pool.cores == [infeasible.max_vector()]
    assert (pool.lb, pool.ub) == (sum(infeasible.min_vector()), INF)


def test_seeding_stopped_early_keeps_its_bump():
    """The cores pooled before a stop prove their bump: their
    below-maximum components are pairwise disjoint."""
    w = generate(seed=4, num_vars=16, max_dom=3, num_funcs=20, cost_range=2,
                 hard_density=0.2)  # seeding runs to three cores
    pool = CorePool()
    oracle = SatOracle(w, should_stop=lambda: len(pool.cores) >= 2)
    with pytest.raises(SearchAborted):
        seed_disjoint_cores(w, pool, oracle)
    assert len(pool.cores) == 2
    mins, maxs = w.min_vector(), w.max_vector()
    bump = sum(mins) + sum(
        min(
            f.levels[f.index[level] + 1] - mins[i]
            for i, (f, level) in enumerate(zip(w.cost_functions, core))
            if level < maxs[i]
        )
        for core in pool.cores
    )
    assert bump > 0 and pool.lb == bump
    last = pool.events[-1]
    assert (last.kind, last.value, last.source) == ("LB", bump, "SEED")


def test_only_the_workers_growth_recalls(monkeypatch):
    """Seeding's offers depend on the models the solver returns, so its
    growth must not consult the oracle's memory; the loops' growth
    does."""
    w = generate(seed=4, num_vars=16, max_dom=3, num_funcs=20, cost_range=2,
                 hard_density=0.2)
    seeding = False
    recalls = 0
    recall = SatOracle.recall
    seed = engine_mod.seed_disjoint_cores

    def counting_recall(self, v):
        nonlocal recalls
        assert not seeding, "seeding consulted the verdict memory"
        recalls += 1
        return recall(self, v)

    def flagged_seed(*args, **kwargs):
        nonlocal seeding
        seeding = True
        try:
            return seed(*args, **kwargs)
        finally:
            seeding = False

    monkeypatch.setattr(SatOracle, "recall", counting_recall)
    monkeypatch.setattr(engine_mod, "seed_disjoint_cores", flagged_seed)
    r = hs_lub(w, seed_disjoint=True)
    assert r.status == OPTIMAL
    assert recalls > 0


def test_seeded_hs_ub_raises_lb_only_through_seeding(two_blocks):
    r = hs_ub(two_blocks, seed_disjoint=True)
    assert r.status == OPTIMAL and r.optimum == 8
    lb_events = [e for e in r.trace if e.kind == "LB"]
    assert all(e.source == "SEED" for e in lb_events)


# ---------------------------------------------------------------- small exacts


def test_single_level_function():
    w = Wcsp.build(1, [2], [((0,), {(0,): 3, (1,): 3})], top=10, name="flat")
    r = hs_lb(w)
    assert r.status == OPTIMAL and r.optimum == 3
    assert shape(r) == [("LB", 3, "LB_WORKER"), ("UB", 3, "LB_WORKER"), ("DONE", 3, "MAIN")]
    assert r.iterations == {"lb": 1}
    r = hs_ub(w)
    assert r.status == OPTIMAL and r.optimum == 3
    assert shape(r) == [("UB", 3, "UB_WORKER"), ("LB", 3, "UB_WORKER"), ("DONE", 3, "MAIN")]


def test_trace_timestamps_and_bound_monotonicity(two_blocks):
    for _, alg in ALGS:
        r = alg(two_blocks, seed_disjoint=True)
        stamps = [e.elapsed_ms for e in r.trace]
        assert stamps == sorted(stamps)
        lbs = [e.value for e in r.trace if e.kind == "LB"]
        ubs = [e.value for e in r.trace if e.kind == "UB"]
        cores = [e.value for e in r.trace if e.kind == "CORE"]
        assert lbs == sorted(lbs) and all(a < b for a, b in zip(lbs, lbs[1:]))
        assert ubs == sorted(ubs, reverse=True) and all(a > b for a, b in zip(ubs, ubs[1:]))
        assert cores == list(range(1, len(cores) + 1))


def test_trace_callback_sees_every_event_in_order(fig1):
    seen = []
    r = hs_lb(fig1, trace=seen.append)
    assert seen == list(r.trace)


# ---------------------------------------------------------------- one problem


def test_lub_loops_search_one_shared_problem(fig1, two_blocks, monkeypatch):
    """Both loops of hs_lub search the one HittingProblem its solve builds."""
    built = []
    searched = []
    build = engine_mod.HittingProblem
    min_cost = engine_mod.min_cost_hitting_vector
    bounded = engine_mod.cost_bounded_hitting_vector

    def counting_build(*args, **kwargs):
        problem = build(*args, **kwargs)
        built.append(problem)
        return problem

    def recording(kind, search):
        def call(p, *args, **kwargs):
            searched.append((kind, p))
            return search(p, *args, **kwargs)
        return call

    monkeypatch.setattr(engine_mod, "HittingProblem", counting_build)
    monkeypatch.setattr(engine_mod, "min_cost_hitting_vector", recording("lb", min_cost))
    monkeypatch.setattr(
        engine_mod, "cost_bounded_hitting_vector", recording("ub", bounded)
    )
    generated = generate(seed=4, num_vars=16, max_dom=3, num_funcs=20, cost_range=2,
                         hard_density=0.2)
    for w in (fig1, two_blocks, generated):
        built.clear()
        searched.clear()
        r = hs_lub(w)
        assert r.status == OPTIMAL, w.name
        assert len(built) == 1, w.name
        assert {kind for kind, _ in searched} == {"lb", "ub"}, w.name
        assert all(p is built[0] for _, p in searched), w.name


# ---------------------------------------------------------------- worker errors


@pytest.mark.parametrize(
    "alg, target",
    [
        (hs_lb, "maximal_core"),
        (hs_ub, "maximal_core"),
        (hs_lub, "maximal_core"),
        (hs_lub, "cost_bounded_hitting_vector"),
    ],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_sequential_worker_crash_propagates_raw(fig1, monkeypatch, alg, target):
    """An exception in a loop's core growth, or in the UB loop's hitting
    search under hs_lub, reaches the caller unwrapped."""
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(engine_mod, target, boom)
    with pytest.raises(ValueError, match="boom"):
        alg(fig1, time_limit=10)


# ---------------------------------------------------------------- components


def test_core_pool_bookkeeping():
    pool = CorePool()
    assert pool.bounds() == (0, INF)
    assert pool.add_core((5, 5), "MAIN")
    assert not pool.add_core((5, 5), "MAIN")
    assert pool.cores == [(5, 5)]

    assert not pool.raise_lb(0, "MAIN")
    assert pool.raise_lb(4, "MAIN") and not pool.raise_lb(4, "MAIN")
    assert not pool.raise_lb(3, "MAIN")
    assert pool.offer_ub(10, (0,), "MAIN")
    assert not pool.offer_ub(10, (1,), "MAIN")
    assert not pool.offer_ub(11, (1,), "MAIN")
    assert pool.offer_ub(8, (2,), "MAIN")
    assert pool.best_witness == (2,)
    assert pool.bounds() == (4, 8)


def test_pool_records_only_accepted_changes():
    pool = CorePool()
    pool.raise_lb(2, "MAIN")
    pool.raise_lb(2, "MAIN")
    pool.offer_ub(9, (0,), "MAIN")
    pool.offer_ub(9, (0,), "MAIN")
    pool.add_core((1, 1), "MAIN")
    pool.add_core((1, 1), "MAIN")
    assert [(e.kind, e.value) for e in pool.events] == [
        ("LB", 2),
        ("UB", 9),
        ("CORE", 1),
    ]


def test_solve_trace_is_the_pool_record(fig1):
    pool = CorePool()
    r = hs_lb(fig1, pool=pool)
    assert r.trace == tuple(pool.events) and r.trace[-1].kind == "DONE"
    # a warm restart on the solved pool starts a new record: only DONE
    seen = []
    again = hs_lb(fig1, pool=pool, trace=seen.append)
    assert [(e.kind, e.value) for e in again.trace] == [("DONE", 20)]
    assert seen == pool.events == list(again.trace)


def test_solve_result_consistency_is_enforced():
    # ValueError, not assert: the check must survive python -O
    with pytest.raises(ValueError, match="OPTIMAL"):
        SolveResult(OPTIMAL, None, 3, 3, None, 0, {}, 0.0, ())
    with pytest.raises(ValueError, match="OPTIMAL"):
        SolveResult(OPTIMAL, 4, 3, 4, None, 0, {}, 0.0, ())
    with pytest.raises(ValueError, match="carries optimum"):
        SolveResult(TIMEOUT, 5, 3, 5, None, 0, {}, 0.0, ())
    ok = SolveResult(TIMEOUT, None, 3, math.inf, None, 0, {}, 0.0, ())
    assert ok.lb == 3


def test_crossed_bounds_raise(fig1):
    # a RuntimeError, not assert: the check must survive python -O
    pool = CorePool()
    pool.lb, pool.ub = 9, 5
    with pytest.raises(RuntimeError, match="bounds crossed"):
        hs_lb(fig1, pool=pool)


def test_core_pool_cores_since():
    pool = CorePool()
    pool.add_core((5, 5), "MAIN")
    pool.add_core((0, 20), "MAIN")
    assert pool.cores_since(0) == [(5, 5), (0, 20)]
    assert pool.cores_since(1) == [(0, 20)]
    assert pool.cores_since(2) == []
