"""Failed assumptions and verdict cores are sound.

Every UNSAT answer names a subset of its assumptions that is UNSAT on its
own; the oracle turns it into a core vector that dominates the query. Both
are checked against fresh solvers that share no learned clauses with the
one that produced them, and against enumeration where it applies.
"""

import math
import random

from hswcsp import SatOracle, generate
from hswcsp.cdcl import CdclSolver
from oracles import NaiveSolver, classify_all_vectors, leq, load


def _random_cnf(rng: random.Random) -> tuple[int, list[list[int]]]:
    nvars = rng.randint(3, 9)
    clauses = []
    for _ in range(rng.randint(4, 4 * nvars)):
        width = rng.randint(1, 3) if rng.random() < 0.15 else rng.randint(2, 3)
        vs = rng.sample(range(1, nvars + 1), min(width, nvars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return nvars, clauses


def test_failed_assumptions_on_random_cnfs():
    rng = random.Random(20031)
    unsat = strict = 0
    for _ in range(150):
        nvars, clauses = _random_cnf(rng)
        solver = load(CdclSolver(), nvars, clauses)  # reused: learns across calls
        naive = load(NaiveSolver(), nvars, clauses)
        for _ in range(6):
            k = rng.randint(0, nvars)
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, nvars + 1), k)
            ]
            if rng.random() < 0.1 and assumptions:
                assumptions.append(-assumptions[0])  # self-contradictory set
            result = solver.solve(assumptions)
            assert result == naive.solve(assumptions)
            if result:
                continue
            unsat += 1
            conflict = solver.conflict
            assert set(conflict) <= set(assumptions)
            assert not load(CdclSolver(), nvars, clauses).solve(conflict)
            assert not load(NaiveSolver(), nvars, clauses).solve(conflict)
            strict += len(set(conflict)) < len(set(assumptions))
    assert unsat >= 100
    assert strict >= 30


def test_level_zero_unsat_blames_no_assumption():
    s = load(CdclSolver(), 2, [[1], [-1, 2], [-2]])
    assert s.solve([1, 2]) is False
    assert s.conflict == []
    assert s.solve([]) is False and s.conflict == []


def test_assumption_false_at_level_zero_blames_itself():
    s = load(CdclSolver(), 3, [[-1], [2, 3]])
    assert s.solve([2, 1, 3]) is False
    assert s.conflict == [1]


def test_conflict_follows_implications():
    # 1 -> 2 -> 3, so assuming 1 and -3 fails; 4 is irrelevant
    s = load(CdclSolver(), 4, [[-1, 2], [-2, 3]])
    assert s.solve([4, 1, -3]) is False
    assert sorted(s.conflict) == [-3, 1]
    assert s.solve([1, 4]) is True
    assert s.conflict == []


def test_naive_solver_blames_every_assumption():
    s = load(NaiveSolver(), 3, [[-1, 2], [-2, 3]])
    assert s.solve([1, -3, 2]) is False
    assert s.conflict == [1, -3, 2]


def _random_vector(rng: random.Random, w):
    return tuple(rng.choice(f.levels) for f in w.cost_functions)


def test_verdict_cores_on_random_oracles():
    rng = random.Random(2010)
    unsat = enumerated = raised = 0
    for seed in range(60):
        w = generate(
            seed=seed,
            num_vars=3 + seed % 4,
            max_dom=2 + seed % 2,
            num_funcs=2 + seed % 5,
            cost_range=4 + seed % 5,
            hard_density=0.3 if seed % 3 else 0.0,
        )
        oracle = SatOracle(w)  # reused across queries, like a solve does
        cores = None
        if math.prod(len(f.levels) for f in w.cost_functions) <= 3000:
            cores = set(classify_all_vectors(w).cores)
        for _ in range(10):
            v = _random_vector(rng, w)
            verdict = oracle.solve_under_vector(v)
            if verdict.satisfiable:
                assert verdict.core is None
                continue
            unsat += 1
            core = verdict.core
            assert leq(v, core)
            raised += core != v
            for backend in (CdclSolver, NaiveSolver):
                assert not SatOracle(w, backend).solve_under_vector(core).satisfiable
            if cores is not None:
                enumerated += 1
                assert v in cores and core in cores
    assert unsat >= 150
    assert enumerated >= 100
    assert raised >= 50


def test_csp_verdict_core_is_the_maximum_vector(infeasible):
    verdict = SatOracle(infeasible).solve_csp()
    assert not verdict.satisfiable
    assert verdict.core == infeasible.max_vector()
