"""The witness a solve holds: the least evaluated total among the checked
witnesses its oracle remembers, kept by the CorePool without an event.
Once lb reaches that total, the pool's next raise_lb or offer_ub closes the
gap with it, so a solve that runs the lb loop can end before its ub loop's
vector-cost bound comes down."""

import pytest

from hswcsp import (
    INF,
    INFEASIBLE,
    OPTIMAL,
    TIMEOUT,
    CorePool,
    SatOracle,
    generate,
    hs_lb,
    hs_lub,
    hs_ub,
)
from test_trace_pins import INSTANCES

ALGS = {"hs_lb": hs_lb, "hs_ub": hs_ub, "hs_lub": hs_lub}


def shape(result) -> list[tuple[str, int, str]]:
    return [(e.kind, e.value, e.source) for e in result.trace]


def test_a_held_witness_only_ends_a_solve_earlier(top_corpus, random_built, monkeypatch):
    """Every strategy, seeded and unseeded, on both corpora and the two
    pinned instances, against the same solve with the pool's held total
    patched out: the trace is the same, or the old one cut short plus a
    closing UB and DONE, with the same status and optimum; hs_ub never
    moves."""
    instances = top_corpus + random_built + [generate(**kw) for kw in INSTANCES.values()]

    def solve_all():
        return [
            (name, w, alg(w, seed_disjoint=seeded))
            for w in instances
            for name, alg in ALGS.items()
            for seeded in (False, True)
        ]

    held = solve_all()
    monkeypatch.setattr(CorePool, "hold", lambda self, total, witness: None)
    plain = solve_all()
    shorter = 0
    for (name, w, new), (_, _, old) in zip(held, plain):
        assert (new.status, new.optimum) == (old.status, old.optimum)
        assert new.status in (OPTIMAL, INFEASIBLE)
        if new.status == OPTIMAL:
            ev = w.evaluate(new.witness)
            assert ev.feasible and ev.total == new.optimum
        if shape(new) == shape(old):
            continue
        assert name != "hs_ub"
        *cut, closing, done = shape(new)
        assert closing[:2] == ("UB", new.optimum)
        assert done == ("DONE", new.optimum, "MAIN")
        assert shape(old)[:len(cut)] == cut and len(cut) + 2 < len(shape(old))
        assert all(new.iterations[k] <= old.iterations[k] for k in old.iterations)
        shorter += 1
    assert shorter > 0


def test_a_held_total_above_ub_changes_nothing():
    pool = CorePool()
    pool.raise_lb(3, "MAIN")
    pool.offer_ub(7, (0,), "MAIN")
    pool.hold(9, (1,))
    assert pool.offer_ub(6, (2,), "MAIN")
    assert pool.raise_lb(6, "MAIN")
    assert (pool.lb, pool.ub, pool.best_witness) == (6, 6, (2,))
    assert (pool.held_total, pool.held_witness) == (9, (1,))
    assert [(e.kind, e.value) for e in pool.events] == [
        ("LB", 3), ("UB", 7), ("UB", 6), ("LB", 6)
    ]


@pytest.mark.parametrize("call", ["raise_lb", "offer_ub"])
def test_a_held_total_equal_to_lb_closes_the_gap_at_the_next_call(call):
    pool = CorePool()
    pool.raise_lb(5, "MAIN")
    pool.offer_ub(9, (0,), "MAIN")
    pool.hold(5, (1,))
    # holding records nothing and moves no bound
    assert pool.bounds() == (5, 9) and len(pool.events) == 2
    # the call's own value changes nothing; the held witness closes the gap
    if call == "raise_lb":
        assert not pool.raise_lb(4, "LB_WORKER")
    else:
        assert not pool.offer_ub(12, (2,), "UB_WORKER")
    source = "LB_WORKER" if call == "raise_lb" else "UB_WORKER"
    assert pool.bounds() == (5, 5) and pool.best_witness == (1,)
    assert (pool.events[-1].kind, pool.events[-1].value, pool.events[-1].source) == (
        "UB", 5, source
    )
    assert len(pool.events) == 3
    r = pool.result({}, False)
    assert (r.status, r.optimum, r.witness) == (OPTIMAL, 5, (1,))


def test_a_raise_to_the_held_total_closes_the_gap_in_the_same_call():
    pool = CorePool()
    pool.hold(5, (1,))
    assert pool.raise_lb(5, "SEED")
    assert [(e.kind, e.value, e.source) for e in pool.events] == [
        ("LB", 5, "SEED"), ("UB", 5, "SEED")
    ]


def test_a_rotated_witness_that_was_never_offered_closes_the_gap(fig1):
    # record_solution is how core growth's rotation hands the oracle a
    # witness; nothing offers it, yet the pool holds it
    pool = CorePool()
    oracle = SatOracle(fig1, hold=pool.hold)
    assert oracle.record_solution((0, 0, 0), (0, 20))
    assert oracle.best_total == 20
    assert pool.events == [] and pool.ub == INF
    pool.raise_lb(20, "LB_WORKER")
    assert (pool.ub, pool.best_witness) == (20, (0, 0, 0))
    assert [(e.kind, e.value) for e in pool.events] == [("LB", 20), ("UB", 20)]


def test_the_oracle_hands_the_pool_only_new_minima(fig1):
    held = []
    oracle = SatOracle(fig1, hold=lambda total, witness: held.append((total, witness)))
    oracle.record_solution((1, 0, 0), (5, 20))
    oracle.record_solution((0, 1, 1), (20, 0))
    oracle.record_solution((0, 1, 0), (20, 5))
    assert held == [(25, (1, 0, 0)), (20, (0, 1, 1))]


def test_a_held_total_below_lb_crosses_the_bounds(fig1):
    # a bogus lb above fig1's optimum, 20: the first witness the solve's
    # oracle holds costs at most 25 < 26, so the next bound call crosses
    pool = CorePool()
    pool.raise_lb(26, "MAIN")
    with pytest.raises(RuntimeError, match="bounds crossed"):
        hs_lb(fig1, pool=pool)


def test_a_warm_pool_keeps_its_held_witness(fig1):
    """A pool keeps lb, ub, cores and best witness across solves, and its
    held witness too: it is a feasible assignment of the same instance.
    (1, 1, 1) costs 20, fig1's optimum; the solves themselves find
    (0, 1, 1), of the same total, so they never replace it."""
    pool = CorePool()
    pool.hold(20, (1, 1, 1))

    def sink(event):
        if event.kind == "CORE":
            raise KeyboardInterrupt

    first = hs_ub(fig1, pool=pool, trace=sink)
    assert (first.status, first.lb, first.ub) == (TIMEOUT, 0, 25)
    assert first.witness == (0, 1, 1)
    assert (pool.held_total, pool.held_witness) == (20, (1, 1, 1))
    again = hs_lb(fig1, pool=pool)
    # lb 20 meets the held total at once
    assert (again.status, again.optimum, again.witness) == (OPTIMAL, 20, (1, 1, 1))
    assert shape(again) == [
        ("LB", 20, "LB_WORKER"), ("UB", 20, "LB_WORKER"), ("DONE", 20, "MAIN")
    ]
