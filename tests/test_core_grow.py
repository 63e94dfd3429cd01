import random
from functools import partial

import pytest

import hswcsp.core_grow as core_grow
from hswcsp import (
    CorePool,
    SatOracle,
    SearchAborted,
    generate,
    maximal_core,
)
from hswcsp.cdcl import CdclSolver
from oracles import NaiveSolver, classify_all_vectors, leq, maximal_cores, vector_is_solution
from test_trace_pins import INSTANCES, PINNED, STRATEGIES, trace_digest


def _no_offer(value, witness):
    pass


@pytest.mark.parametrize("start", [(0, 0), (0, 5), (5, 0), (5, 5)])
def test_every_fig1_core_grows_to_the_unique_maximal_core(fig1, start):
    assert maximal_core(SatOracle(fig1), start, _no_offer) == (5, 5)


def test_growth_result_dominates_start(fig1):
    grown = maximal_core(SatOracle(fig1), (0, 5), _no_offer)
    assert leq((0, 5), grown)


def test_not_a_core_is_a_caller_bug(fig1):
    # a satisfiable start is answered by the first probe: one offer, no core
    offers = []
    assert maximal_core(SatOracle(fig1), (0, 20), lambda *o: offers.append(o)) is None
    [(value, witness)] = offers
    assert value == 20
    ev = fig1.evaluate(witness)
    assert ev.feasible and leq(ev.per_function, (0, 20))


def _pool_offer(pool: CorePool):
    return partial(pool.offer_ub, source="MAIN")


def test_growth_offers_probe_vector_costs(fig1):
    """Growing (0,0): raises to (5,5), then probes (20,5) and (5,20).

    Both probes are SAT at vector cost 25, but only the first one beats
    the pool's bound, so exactly one offer lands.
    """
    pool = CorePool()
    grown = maximal_core(SatOracle(fig1), (0, 0), _pool_offer(pool))
    assert grown == (5, 5)
    assert pool.ub == 25
    assert [(e.kind, e.value) for e in pool.events] == [("UB", 25)]
    ev = fig1.evaluate(pool.best_witness)
    assert ev.feasible
    # the witness satisfies the SAT probe (20, 5), componentwise
    assert leq(ev.per_function, (20, 5))
    assert ev.total <= 25


def test_growth_respects_preexisting_bound(fig1):
    # with ub already at 20, the cost-25 probes do not land
    pool = CorePool()
    pool.offer_ub(20, (0, 1, 1), "MAIN")
    assert maximal_core(SatOracle(fig1), (0, 0), _pool_offer(pool)) == (5, 5)
    assert [(e.kind, e.value) for e in pool.events] == [("UB", 20)]
    assert pool.ub == 20 and pool.best_witness == (0, 1, 1)


def test_stop_now_aborts(fig1):
    stop = False
    oracle = SatOracle(fig1, should_stop=lambda: stop)
    stop = True
    with pytest.raises(SearchAborted):
        maximal_core(oracle, (0, 0), _no_offer)


def test_stop_between_probes_aborts(fig1):
    # after the build's one poll, two polls happen inside the initial
    # oracle call; the third is the growth loop's own check before the
    # first raise probe
    calls = {"n": 0}

    def stop() -> bool:
        calls["n"] += 1
        return calls["n"] > 2

    oracle = SatOracle(fig1, should_stop=stop)
    calls["n"] = 0
    with pytest.raises(SearchAborted, match="stopped during core growth"):
        maximal_core(oracle, (0, 0), _no_offer)


def test_grown_cores_are_maximal_on_random_instances(corpus):
    """Cross-check growth against enumeration on small instances."""
    checked = 0
    for w, _ in corpus[:60]:
        classification = classify_all_vectors(w)
        if not classification.cores:
            continue
        oracle = SatOracle(w)
        maximal = set(maximal_cores(w))
        start = classification.cores[0]
        grown = maximal_core(oracle, start, _no_offer)
        assert leq(start, grown)
        assert grown in maximal
        assert not vector_is_solution(w, grown)
        # no single-component raise may stay unsatisfiable
        for i, f in enumerate(w.cost_functions):
            j = f.levels.index(grown[i])
            if j + 1 < len(f.levels):
                probe = list(grown)
                probe[i] = f.levels[j + 1]
                assert vector_is_solution(w, probe)
        checked += 1
    assert checked >= 20


class _Counting(SatOracle):
    calls = 0

    def solve_under_vector(self, v):
        self.calls += 1
        return super().solve_under_vector(v)


class _Forgetful(_Counting):
    """An oracle whose verdict memory never answers, so growth asks its
    backend about every probe that its last core does not settle."""

    def recall(self, v):
        return None


def test_skipped_probes_do_not_change_growth(corpus):
    """The naive backend blames every assumption, so growth over it without
    a verdict memory probes every raise. CDCL growth skips the raises its
    cores imply, and with the memory also the probes its oracle's
    remembered verdicts settle, from every earlier growth on the instance.
    All must grow every start core into the same maximal core, with the
    same offers; recall must not add oracle calls."""
    rng = random.Random(7)
    hard = [
        generate(seed=s, num_vars=5, max_dom=3, num_funcs=6, cost_range=5,
                 hard_density=0.3)
        for s in range(30)
    ]
    instances = [w for w, _ in corpus[:100]] + hard
    grown_count = fewer = recalled = 0
    for w in instances:
        starts = [w.min_vector()] + [
            tuple(rng.choice(f.levels[:2]) for f in w.cost_functions)
            for _ in range(3)
        ]
        # one recalling oracle per instance, so growth can recall the
        # verdicts of earlier growths; the others are fresh for each start
        recalling = _Counting(w)
        for start in starts:
            if SatOracle(w).solve_under_vector(start).satisfiable:
                continue
            runs = {}
            for name, backend, recall in (
                ("cdcl", CdclSolver, False),
                ("cdcl+recall", CdclSolver, True),
                ("naive", NaiveSolver, False),
            ):
                oracle = recalling if recall else _Forgetful(w, backend)
                before = oracle.calls
                offers = []

                def offer(value, witness, w=w, offers=offers):
                    ev = w.evaluate(witness)
                    assert ev.feasible and ev.total <= value
                    offers.append(value)

                core = maximal_core(oracle, start, offer)
                runs[name] = (core, offers, oracle.calls - before)
            core, offers, naive_calls = runs.pop("naive")
            for other_core, other_offers, other_calls in runs.values():
                assert other_core == core
                assert other_offers == offers
                assert other_calls <= naive_calls
            plain_calls, recall_calls = runs["cdcl"][2], runs["cdcl+recall"][2]
            assert recall_calls <= plain_calls
            fewer += plain_calls < naive_calls
            recalled += recall_calls < plain_calls
            grown_count += 1
    assert grown_count >= 100
    assert 2 * fewer >= grown_count
    assert 2 * recalled >= grown_count


def test_rotation_saves_backend_sat_calls_and_keeps_the_trace(monkeypatch):
    """Rotation answers later raises from one SAT answer's witness. On the
    pinned `hard` instance, deterministic hs_lub gets fewer SAT answers
    from its backend than with rotation patched out, and both solves
    give the pinned trace digest."""

    def solve() -> tuple[int, str]:
        sat = 0
        cdcl_solve = CdclSolver.solve

        def counted(self, *args, **kwargs):
            nonlocal sat
            answer = cdcl_solve(self, *args, **kwargs)
            sat += answer
            return answer

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CdclSolver, "solve", counted)
            r = STRATEGIES["hs_lub_det"](generate(**INSTANCES["hard"]))
        return sat, trace_digest(r)

    (pinned,) = [d for i, s, _, d in PINNED if (i, s) == ("hard", "hs_lub_det")]
    rotated_sat, rotated_digest = solve()
    monkeypatch.setattr(core_grow, "_rotate", lambda *args: None)
    plain_sat, plain_digest = solve()
    assert rotated_digest == plain_digest == pinned
    assert rotated_sat < plain_sat
