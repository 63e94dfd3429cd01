import itertools
import os
import random
import subprocess
import sys

import pytest

from hswcsp import (
    INF,
    INFEASIBLE,
    OPTIMAL,
    CorePool,
    Encoding,
    SatOracle,
    SearchAborted,
    Wcsp,
    generate,
    hs_lb,
    hs_lub,
    hs_ub,
    maximal_core,
    optimal_cost,
    seed_disjoint_cores,
)
import hswcsp.engine as engine
from hswcsp.cdcl import CdclSolver
from hswcsp.model import CostFunction
from hswcsp.sat_oracle import OracleVerdict
from oracles import NaiveSolver, leq, vector_is_solution
from test_trace_pins import INSTANCES

BACKENDS = (CdclSolver, NaiveSolver)
each_backend = pytest.mark.parametrize("backend", BACKENDS, ids=("cdcl", "naive"))


def test_encoding_shape(fig1):
    enc = Encoding(fig1)
    # 6 value booleans + 2 selectors per function
    assert enc.num_vars == 10
    assert sum(map(len, enc.selector_var)) == 4
    clauses = list(enc.clauses())
    assert len(clauses) == 12
    # first, per domain: one at-least-one clause plus one pairwise exclusion
    assert all(len(c) == 2 for c in clauses[:6])
    # then, per function: one guard per tuple costing a non-minimum level
    assert all(len(c) == 3 for c in clauses[6:])


def test_assumptions_for(fig1):
    enc = Encoding(fig1)
    assert len(enc.assumptions_for((0, 0))) == 4
    assert len(enc.assumptions_for((5, 5))) == 2
    assert enc.assumptions_for((20, 20)) == []
    assert len(enc.assumptions_for((5, 20))) == 1


def test_assumptions_for_is_every_selector_above_the_bound(corpus):
    """Selectors are numbered after the value booleans, in (i, j) order, and
    assumptions_for(v) lists s(i, j) for every j >= 1 with levels[j] > v_i,
    in that order."""
    rng = random.Random(11)
    for w, _ in corpus[:60]:
        enc = Encoding(w)
        s = {owner: lit for lit, owner in enc.selector_owner.items()}
        pairs = [
            (i, j)
            for i, f in enumerate(w.cost_functions)
            for j in range(1, len(f.levels))
        ]
        first = sum(w.domains) + 1
        assert [s[p] for p in pairs] == list(range(first, enc.num_vars + 1))
        for _ in range(5):
            v = tuple(rng.choice(f.levels) for f in w.cost_functions)
            assert enc.assumptions_for(v) == [
                s[i, j] for i, j in pairs if w.cost_functions[i].levels[j] > v[i]
            ]


@each_backend
def test_solve_csp(fig1, infeasible, backend):
    assert SatOracle(fig1, backend).solve_csp().satisfiable
    verdict = SatOracle(infeasible, backend).solve_csp()
    assert not verdict.satisfiable and verdict.witness is None


@each_backend
def test_fig1_vectors_all_classified(fig1, backend):
    oracle = SatOracle(fig1, backend)
    for v in itertools.product((0, 5, 20), repeat=2):
        assert oracle.solve_under_vector(v).satisfiable == vector_is_solution(fig1, v)


def test_witness_respects_bounds(fig1):
    oracle = SatOracle(fig1)
    verdict = oracle.solve_under_vector((20, 5))
    ev = fig1.evaluate(verdict.witness)
    assert ev.feasible
    assert all(c <= b for c, b in zip(ev.per_function, (20, 5)))


def test_vector_validation_propagates(fig1):
    with pytest.raises(ValueError, match="not a level"):
        SatOracle(fig1).solve_under_vector((0, 7))


@each_backend
def test_should_stop_aborts(fig1, backend):
    """An oracle stops on the predicate it was built with: in its own
    queries, in core growth and in seeding, none of which takes another."""
    stop = False
    oracle = SatOracle(fig1, backend, should_stop=lambda: stop)
    stop = True
    with pytest.raises(SearchAborted):
        oracle.solve_under_vector((0, 0))
    with pytest.raises(SearchAborted):
        maximal_core(oracle, (0, 0), lambda value, witness: None)
    pool = CorePool()
    with pytest.raises(SearchAborted):
        seed_disjoint_cores(pool, oracle)
    assert pool.cores == [] and (pool.lb, pool.ub) == (0, INF)


def test_incremental_reuse_stays_correct(fig1):
    """Learned clauses from earlier queries must not leak into later ones."""
    oracle = SatOracle(fig1)
    seq = [(0, 0), (20, 20), (5, 5), (0, 20), (5, 0), (20, 0), (0, 0), (20, 20)]
    for v in seq:
        assert oracle.solve_under_vector(v).satisfiable == vector_is_solution(fig1, v)


def test_naive_solver_basics():
    s = NaiveSolver()
    a, b = s.new_var(), s.new_var()
    assert s.add_clause([a, b])
    assert s.add_clause([-a, b])
    assert s.solve()
    assert s.model[b] == 1
    # tautologies are dropped, empty clause kills the instance
    assert s.add_clause([a, -a])
    assert not s.add_clause([])
    assert not s.solve()


def test_naive_solver_assumption_conflict():
    s = NaiveSolver()
    a = s.new_var()
    s.add_clause([a])
    assert s.solve([a])
    assert not s.solve([-a])
    assert not s.solve([a, -a])


def test_differential_small_corpus(top_corpus):
    """CDCL and naive verdicts against brute force over random probes, on
    generated instances and on instances with table entries at top; and
    every strategy's answer on the latter against the brute-force optimum."""
    checked = 0
    for seed in range(40):
        w = generate(
            seed=seed,
            num_vars=2 + seed % 3,
            max_dom=2 + seed % 2,
            num_funcs=1 + seed % 3,
            cost_range=6,
            hard_density=0.3 if seed % 2 else 0.0,
        )
        oracles = [SatOracle(w, b) for b in BACKENDS]
        spaces = [f.levels for f in w.cost_functions]
        vectors = list(itertools.product(*spaces))[:: max(1, seed % 3)]
        for v in vectors[:8]:
            expected = vector_is_solution(w, v)
            for oracle in oracles:
                assert oracle.solve_under_vector(v).satisfiable == expected
            checked += 1
    assert checked >= 150

    # built without Wcsp.build: a table entry at top is the only record of
    # its forbidden tuple
    direct = [
        Wcsp(1, (2,), (), (CostFunction((0,), {(0,): 1, (1,): 5}, (1,)),), 5),
    ]
    # a first function that only forbids is rejected when built directly;
    # Wcsp.build makes it a hard constraint
    only_forbids = {(0, 0): 0, (0, 1): 4, (0, 2): 0, (1, 0): 4, (1, 1): 0, (1, 2): 4}
    other = {(0,): 2, (1,): 3, (2,): 1}
    with pytest.raises(ValueError, match="only forbids"):
        Wcsp(2, (2, 3), (), (
            CostFunction((0, 1), only_forbids, (0,)),
            CostFunction((1,), other, (1, 2, 3)),
        ), 4)
    direct.append(Wcsp.build(2, (2, 3), [((0, 1), only_forbids), ((1,), other)], top=4))
    for n, w in enumerate(top_corpus + direct):
        oracles = [SatOracle(w, b) for b in BACKENDS]
        vectors = list(itertools.product(*(f.levels for f in w.cost_functions)))
        for v in vectors[n % 3::3] + [w.min_vector(), w.max_vector()]:
            expected = vector_is_solution(w, v)
            for oracle in oracles:
                assert oracle.solve_under_vector(v).satisfiable == expected
        best = optimal_cost(w)
        for strategy in (hs_lb, hs_ub, hs_lub):
            result = strategy(w)
            if best is None:
                assert result.status == INFEASIBLE
            else:
                assert (result.status, result.optimum) == (OPTIMAL, best)
    assert any(optimal_cost(w) is None for w in top_corpus)


def _linear_recall(oracle, v):
    """What recall must answer, by a scan over the remembered verdicts."""
    for witness, cost in oracle.solutions:
        if leq(cost, v):
            return OracleVerdict(witness=witness)
    for core in oracle.cores:
        if leq(v, core):
            return OracleVerdict(core=core)
    return None


def test_recall_agrees_with_a_fresh_oracle():
    """Random query sequences: every remembered answer is right, and recall
    answers exactly when a scan over the remembered verdicts does."""
    rng = random.Random(11)
    answered = sat = unsat = 0
    for seed in range(40):
        w = generate(
            seed=seed,
            num_vars=3 + seed % 3,
            max_dom=2 + seed % 2,
            num_funcs=2 + seed % 4,
            cost_range=5,
            hard_density=0.3 if seed % 2 else 0.0,
        )
        oracle = SatOracle(w)
        for _ in range(30):
            v = tuple(rng.choice(f.levels) for f in w.cost_functions)
            verdict = oracle.recall(v)
            assert verdict == _linear_recall(oracle, v)
            if verdict is not None:
                answered += 1
                assert verdict.satisfiable == vector_is_solution(w, v)
                if verdict.satisfiable:
                    sat += 1
                    ev = w.evaluate(verdict.witness)
                    assert ev.feasible and leq(ev.per_function, v)
                else:
                    unsat += 1
                    assert leq(v, verdict.core)
                    assert not SatOracle(w).solve_under_vector(verdict.core).satisfiable
            if rng.random() < 0.5:
                oracle.solve_under_vector(v)
    assert sat >= 300 and unsat >= 100 and answered >= 600


def test_a_solve_records_each_verdict_once(corpus, monkeypatch):
    """Growth asks the backend only after recall missed, so no verdict a
    solve records is already remembered: every solution cost vector and
    every core its oracle holds is distinct."""
    built = []

    class Collecting(SatOracle):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(engine, "SatOracle", Collecting)
    instances = [w for w, _ in corpus[:60]]
    instances += [generate(**kwargs) for kwargs in INSTANCES.values()]
    solves = 0
    for w in instances:
        for strategy in (hs_lb, hs_ub, hs_lub):
            for seed in (False, True):
                built.clear()
                assert strategy(w, seed_disjoint=seed).status == OPTIMAL
                (oracle,) = built
                case = w.name, strategy.__name__, seed
                costs = [cost for _, cost in oracle.solutions]
                assert len(set(costs)) == len(costs), case
                assert len(set(oracle.cores)) == len(oracle.cores), case
                solves += 1
    assert solves == 372


def test_every_remembered_solution_is_feasible_at_its_cost(
    top_corpus, random_built, monkeypatch
):
    """Growth records rotated witnesses with cost vectors it computed one
    variable at a time. After whole solves, on instances with tables at
    top and hard constraints, every solution the oracle remembers is
    feasible and costs exactly its recorded vector."""
    built = []
    rotated = 0

    class Collecting(SatOracle):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

        def record_solution(self, witness, cost):
            nonlocal rotated
            recorded = super().record_solution(witness, cost)
            rotated += recorded
            return recorded

    monkeypatch.setattr(engine, "SatOracle", Collecting)
    for w in top_corpus + random_built:
        for strategy in (hs_lb, hs_ub, hs_lub):
            built.clear()
            assert strategy(w).status in (OPTIMAL, INFEASIBLE)
            (oracle,) = built
            for witness, cost in oracle.solutions:
                ev = w.evaluate(witness)
                assert ev.feasible and ev.per_function == cost
    assert rotated > 0


def test_record_solution_skips_covered_costs_and_checks_the_rest(fig1):
    oracle = SatOracle(fig1)
    assert oracle.record_solution((0, 0, 0), (0, 20))
    # (0, 20) fits under both, so recall already answers for them
    assert not oracle.record_solution((0, 0, 1), (0, 20))
    assert not oracle.record_solution((1, 0, 0), (5, 20))
    assert oracle.record_solution((0, 1, 1), (20, 0))
    assert [cost for _, cost in oracle.solutions] == [(0, 20), (20, 0)]
    assert oracle.recall((5, 20)).witness == (0, 0, 0)
    # (0, 1, 0) costs (20, 5), not the claimed vector
    with pytest.raises(RuntimeError, match="does not cost"):
        oracle.record_solution((0, 1, 0), (5, 5))
    assert len(oracle.solutions) == 2


def test_recall_masks_match_their_definition():
    w = generate(seed=3, num_vars=5, max_dom=3, num_funcs=6, cost_range=5,
                 hard_density=0.2)
    oracle = SatOracle(w)
    rng = random.Random(5)
    for _ in range(40):
        oracle.solve_under_vector(tuple(rng.choice(f.levels) for f in w.cost_functions))
    assert oracle.solutions and oracle.cores
    for i, f in enumerate(w.cost_functions):
        for t, level in enumerate(f.levels):
            fits = sum(1 << s for s, (_, cost) in enumerate(oracle.solutions)
                       if cost[i] <= level)
            under = sum(1 << k for k, core in enumerate(oracle.cores)
                        if core[i] >= level)
            assert oracle.fits[i][t] == fits
            assert oracle.under[i][t] == under


def test_recall_never_calls_the_backend(fig1):
    oracle = SatOracle(fig1)
    oracle.solve_under_vector((20, 5))
    oracle.solve_under_vector((5, 5))
    oracle.solver = None  # any backend call would now fail
    assert oracle.recall((20, 20)).satisfiable
    assert not oracle.recall((0, 5)).satisfiable
    assert oracle.recall((5, 20)) is None


# --- checks that raise real exceptions (kept under python -O) ---


class _IgnoresBounds(CdclSolver):
    """Answers every query as if no cost bound were assumed."""

    def solve(self, assumptions=(), should_stop=None):
        return super().solve((), should_stop)


class _Blames(CdclSolver):
    """Answers UNSAT and blames a fixed literal, whatever the query."""

    blamed = 0

    def solve(self, assumptions=(), should_stop=None):
        self.conflict = [self.blamed]
        return False


def _blaming(lit):
    def factory():
        s = _Blames()
        s.blamed = lit
        return s

    return factory


def test_check_verdict_shape():
    with pytest.raises(ValueError, match="either a witness or a core"):
        OracleVerdict(None, None)
    with pytest.raises(ValueError, match="either a witness or a core"):
        OracleVerdict((0,), (1,))
    assert OracleVerdict(witness=(0,)).satisfiable
    assert not OracleVerdict(core=(1,)).satisfiable


def test_check_witness_respects_bounds(fig1):
    # (0, 0) is a core of fig1, so any feasible assignment breaks a bound
    oracle = SatOracle(fig1, _IgnoresBounds)
    with pytest.raises(RuntimeError, match="does not respect"):
        oracle.solve_under_vector((0, 0))


def test_check_core_dominates_query(fig1):
    enc = Encoding(fig1)
    # (20, 20) assumes no selector, so blaming s(0, 1) yields core (0, 20)
    oracle = SatOracle(fig1, _blaming(enc.selector_var[0][0]))
    with pytest.raises(RuntimeError, match="does not dominate"):
        oracle.solve_under_vector((20, 20))
    oracle = SatOracle(fig1, _blaming(enc.value_var[0][0]))
    with pytest.raises(RuntimeError, match="not a selector"):
        oracle.solve_under_vector((0, 0))


def test_check_recalled_solution_fits(fig1):
    oracle = SatOracle(fig1)
    # (5, 5) is fig1's only maximal core, so this witness costs (20, <= 5)
    assert oracle.solve_under_vector((20, 5)).satisfiable
    assert oracle.recall((5, 20)) is None
    oracle.fits[0][fig1.cost_functions[0].levels.index(5)] |= 1
    with pytest.raises(RuntimeError, match="does not fit"):
        oracle.recall((5, 20))


def test_check_recalled_core_dominates(fig1):
    oracle = SatOracle(fig1)
    # the only core that dominates (5, 5) is (5, 5) itself
    assert oracle.solve_under_vector((5, 5)).core == (5, 5)
    assert oracle.recall((20, 5)) is None
    oracle.under[0][fig1.cost_functions[0].levels.index(20)] |= 1
    with pytest.raises(RuntimeError, match="does not dominate"):
        oracle.recall((20, 5))


def test_check_decode_one_hot(fig1):
    enc = Encoding(fig1)
    with pytest.raises(RuntimeError, match="holds 2 values"):
        enc.decode([1] * (enc.num_vars + 1))
    with pytest.raises(RuntimeError, match="holds 0 values"):
        enc.decode([-1] * (enc.num_vars + 1))


def test_check_cdcl_clause_variables_are_known():
    s = CdclSolver()
    a, b = s.new_var(), s.new_var()
    for clause in ([a, 3], [-3], [0], [b, 0, -a]):
        with pytest.raises(ValueError, match="unknown variable"):
            s.add_clause(clause)
    assert s.add_clause([a, b]) and s.solve()


def test_check_cdcl_assumptions_are_known():
    s = CdclSolver()
    a = s.new_var()
    s.add_clause([a])
    # checked on entry: the failing -a would end the search before 2
    for assumptions in ([2], [-a, 2], [0]):
        with pytest.raises(ValueError, match="unknown assumption"):
            s.solve(assumptions)
    assert s.solve([a]) and not s.solve([-a])


def test_check_cdcl_clauses_join_at_level_0():
    s = CdclSolver()
    a, b, c = s.new_var(), s.new_var(), s.new_var()
    s.add_clause([-a, b])
    s.add_clause([-a, -b])
    # assuming a conflicts at level 1, where the stop poll adds a clause
    with pytest.raises(RuntimeError, match="decision level 0"):
        s.solve([a], should_stop=lambda: not s.add_clause([c]))


def test_solver_is_usable_after_a_raising_stop_poll():
    s = CdclSolver()
    a, b, c = s.new_var(), s.new_var(), s.new_var()
    s.add_clause([-a, b])
    s.add_clause([-a, -b])

    def stop() -> bool:
        raise KeyError("poll failed")

    # assuming a conflicts at level 1, where the poll raises
    with pytest.raises(KeyError, match="poll failed"):
        s.solve([a], should_stop=stop)
    assert s.add_clause([c, b])
    assert not s.solve([a, -c]) and s.conflict == [a]
    assert s.solve([-c]) and s.model[b] == 1 and s.model[a] == -1


def test_optimized_mode_keeps_checks():
    """The test_check_* cases pass under python -O, which strips asserts."""
    checks = sum(name.startswith("test_check_") for name in globals())
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         __file__, "-k", "test_check_"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{checks} passed" in proc.stdout


def test_unsat_verdicts_carry_a_dominating_core(fig1):
    for backend in BACKENDS:
        oracle = SatOracle(fig1, backend)
        verdict = oracle.solve_under_vector((0, 5))
        assert not verdict.satisfiable and verdict.witness is None
        assert verdict.core is not None and all(
            c >= x for c, x in zip(verdict.core, (0, 5))
        )
    # the naive backend blames every assumption: the core is the query
    assert SatOracle(fig1, NaiveSolver).solve_under_vector((0, 5)).core == (0, 5)
