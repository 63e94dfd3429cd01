"""The CDCL solver's models stay whole when it restarts often.

A restart backtracks to level 0 and must put every variable it unassigns
back on the decision heap; one it left off would never be decided again,
so a later SAT answer could leave it unassigned or report a model that
breaks a clause. A restart base of 2 makes the Luby schedule restart after
every few conflicts, and random 3-SAT at a clause/variable ratio of 4.2,
near the satisfiability threshold, gives the conflicts.

A SAT answer resets the whole trail at once. After it the solver must be
back at level 0 with only its level-0 literals assigned, and every other
variable must have saved its model value as its phase, as a backtrack one
variable at a time would have left it.

Clause-database reduction deletes the less active half of the learned
clauses, but never a binary one or one that is the reason of a current
assignment (locked). A solver whose learned-clause limit starts at 1
reduces at nearly every decision once it has learned a few clauses, and
its answers must still match a fresh solver's.
"""

import random

from hswcsp.cdcl import CdclSolver
from oracles import load


def _satisfies(model, clauses):
    return all(any(model[abs(lit)] == (1 if lit > 0 else -1) for lit in c) for c in clauses)


def test_models_are_total_and_satisfying_under_frequent_restarts():
    rng = random.Random(7300)
    nvars, nclauses = 40, 168
    sat = 0
    for _ in range(300):
        clauses = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nvars + 1), 3)]
            for _ in range(nclauses)
        ]
        solver = load(CdclSolver(), nvars, clauses)
        solver.RESTART_BASE = 2
        for _ in range(5):
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, nvars + 1), rng.randint(0, 6))
            ]
            answer = solver.solve(assumptions)
            assert not solver.trail_lim
            if not answer:
                continue
            sat += 1
            model = solver.model
            # at level 0 the trail holds just the literals fixed there
            assert all(model[abs(lit)] == (1 if lit > 0 else -1) for lit in solver.trail)
            fixed = {abs(lit) for lit in solver.trail}
            free = [v for v in range(1, nvars + 1) if v not in fixed]
            assert all(solver.polarity[v] == model[v] for v in free)
            assert all(model[v] != 0 for v in range(1, nvars + 1))
            assert _satisfies(model, clauses)
            assert all(model[abs(lit)] == (1 if lit > 0 else -1) for lit in assumptions)
    assert sat > 300


def test_answers_hold_under_frequent_clause_database_reduction(monkeypatch):
    counts = {"reduce": 0, "locked": 0}
    reduce_db, locked = CdclSolver._reduce_db, CdclSolver._locked

    def counting_reduce(self):
        counts["reduce"] += 1
        reduce_db(self)

    def counting_locked(self, c):
        answer = locked(self, c)
        counts["locked"] += answer
        return answer

    monkeypatch.setattr(CdclSolver, "_reduce_db", counting_reduce)
    monkeypatch.setattr(CdclSolver, "_locked", counting_locked)
    rng = random.Random(7301)
    nvars, nclauses = 50, 213
    answers = set()
    for _ in range(60):
        clauses = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nvars + 1), 3)]
            for _ in range(nclauses)
        ]
        solver = load(CdclSolver(), nvars, clauses)
        solver.max_learnts = 1.0
        for _ in range(5):
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, nvars + 1), rng.randint(0, 6))
            ]
            answer = solver.solve(assumptions)
            answers.add(answer)
            assert answer == load(CdclSolver(), nvars, clauses).solve(assumptions)
            if answer:
                assert _satisfies(solver.model, clauses)
                assert all(solver.model[abs(lit)] == (1 if lit > 0 else -1) for lit in assumptions)
            else:
                assert set(solver.conflict) <= set(assumptions)
                assert not load(CdclSolver(), nvars, clauses).solve(solver.conflict)
            # every stored clause is watched by its first two literals, once
            stored = solver.clauses + solver.learned
            assert sum(map(len, solver.watches)) == 2 * len(stored)
            assert all(
                c in solver.watches[c.lits[0]] and c in solver.watches[c.lits[1]]
                for c in stored
            )
    assert answers == {True, False}
    assert counts["reduce"] >= 300
    assert counts["locked"] >= 100


def test_answers_hold_across_activity_rescales():
    # increments just under the rescale thresholds: the first bumps push
    # an activity past them and every activity is scaled down together
    rng = random.Random(7302)
    nvars, nclauses = 50, 213
    var_rescaled = cla_rescaled = 0
    for _ in range(40):
        clauses = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nvars + 1), 3)]
            for _ in range(nclauses)
        ]
        solver = load(CdclSolver(), nvars, clauses)
        solver.var_inc, solver.cla_inc = 1e99, 1e19
        for _ in range(5):
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, nvars + 1), rng.randint(0, 6))
            ]
            answer = solver.solve(assumptions)
            assert answer == load(CdclSolver(), nvars, clauses).solve(assumptions)
            if answer:
                assert _satisfies(solver.model, clauses)
        # increments only grow between rescales
        var_rescaled += solver.var_inc < 1e99
        cla_rescaled += solver.cla_inc < 1e19
    assert var_rescaled >= 30 and cla_rescaled >= 1


def test_a_tautology_is_not_stored():
    solver = load(CdclSolver(), 2, [[1, 2]])
    assert solver.add_clause([2, 1, -2])
    assert len(solver.clauses) == 1 and solver.ok
