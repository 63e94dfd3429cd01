"""The CDCL solver's models stay whole when it restarts often.

A restart backtracks to level 0 and must put every variable it unassigns
back on the decision heap; one it left off would never be decided again,
so a later SAT answer could leave it unassigned or report a model that
breaks a clause. A restart base of 2 makes the Luby schedule restart after
every few conflicts, and random 3-SAT at a clause/variable ratio of 4.2,
near the satisfiability threshold, gives the conflicts.

A SAT answer leaves solve through the same backtrack to level 0 as every
other exit. After it the solver must be back at level 0 with only its
level-0 literals assigned, and every other variable must have saved its
model value as its phase.

Clause-database reduction deletes the less active half of the learned
clauses, but never a binary one or one that is the reason of a current
assignment (locked). A solver whose learned-clause limit starts at 1
reduces at nearly every decision once it has learned a few clauses, and
its answers must still match a fresh solver's.

Each literal has its own value slot and watch list, positive literals at
the front of the lists and negative ones at the back; new_var takes the
next pair from a gap between the halves and doubles the gap when it runs
out. Variables added across those doublings, between solves too, must
each get two fresh slots.

The stress loops pin their transcripts: a digest of every solve, in
order, as its assumptions, its answer, the model's true variables (SAT)
or the failed assumptions (UNSAT), every variable's phase, and the
literals of every learned clause. The loops restart, reduce the clause
database and rescale activities, which no solve of the trace pins in
test_trace_pins.py does, so a change to the solver's internals that keeps
every answer must keep these digests too. After every solve, each stored
clause must be in the watch lists of its first two literals, once each,
and in no other.
"""

import hashlib
import random

from hswcsp.cdcl import CdclSolver
from oracles import NaiveSolver, load


def _satisfies(model, clauses):
    return all(any(model[abs(lit)] == (1 if lit > 0 else -1) for lit in c) for c in clauses)


def _random_formula(rng, nvars, nclauses):
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nvars + 1), 3)]
        for _ in range(nclauses)
    ]


def _random_assumptions(rng, nvars):
    return [
        v if rng.random() < 0.5 else -v
        for v in rng.sample(range(1, nvars + 1), rng.randint(0, 6))
    ]


def _assert_watched_once(solver):
    expected = sorted(
        (id(c), lit) for c in solver.clauses + solver.learned for lit in c.lits[:2]
    )
    watched = sorted(
        (id(c), lit)
        for lit in range(-solver.nvars, solver.nvars + 1)
        for c in solver.watches[lit]
    )
    assert watched == expected
    assert sum(map(len, solver.watches)) == len(expected)  # the gap is empty


def _record(transcript, solver, assumptions, answer):
    """Add one solve to a transcript digest and check the watch lists."""
    if answer:
        out = [v for v in range(1, solver.nvars + 1) if solver.model[v] == 1]
    else:
        out = solver.conflict
    learned = [sorted(c.lits) for c in solver.learned]
    entry = (assumptions, answer, out, solver.polarity[1:], learned)
    transcript.update(repr(entry).encode())
    _assert_watched_once(solver)


def test_models_are_total_and_satisfying_under_frequent_restarts():
    rng = random.Random(7300)
    nvars, nclauses = 40, 168
    sat = 0
    transcript = hashlib.sha256()
    for _ in range(300):
        clauses = _random_formula(rng, nvars, nclauses)
        solver = load(CdclSolver(), nvars, clauses)
        solver.RESTART_BASE = 2
        for _ in range(5):
            assumptions = _random_assumptions(rng, nvars)
            answer = solver.solve(assumptions)
            _record(transcript, solver, assumptions, answer)
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
    assert transcript.hexdigest()[:16] == "fa29c70c66e1eeaf"


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
    transcript = hashlib.sha256()
    for _ in range(60):
        clauses = _random_formula(rng, nvars, nclauses)
        solver = load(CdclSolver(), nvars, clauses)
        solver.max_learnts = 1.0
        for _ in range(5):
            assumptions = _random_assumptions(rng, nvars)
            answer = solver.solve(assumptions)
            _record(transcript, solver, assumptions, answer)
            answers.add(answer)
            assert answer == load(CdclSolver(), nvars, clauses).solve(assumptions)
            if answer:
                assert _satisfies(solver.model, clauses)
                assert all(solver.model[abs(lit)] == (1 if lit > 0 else -1) for lit in assumptions)
            else:
                assert set(solver.conflict) <= set(assumptions)
                assert not load(CdclSolver(), nvars, clauses).solve(solver.conflict)
    assert answers == {True, False}
    assert counts["reduce"] >= 300
    assert counts["locked"] >= 100
    assert transcript.hexdigest()[:16] == "c0550bfef14d7f8c"


def test_answers_hold_across_activity_rescales():
    # increments just under the rescale thresholds: the first bumps push
    # an activity past them and every activity is scaled down together
    rng = random.Random(7302)
    nvars, nclauses = 50, 213
    var_rescaled = cla_rescaled = 0
    transcript = hashlib.sha256()
    for _ in range(40):
        clauses = _random_formula(rng, nvars, nclauses)
        solver = load(CdclSolver(), nvars, clauses)
        solver.var_inc, solver.cla_inc = 1e99, 1e19
        for _ in range(5):
            assumptions = _random_assumptions(rng, nvars)
            answer = solver.solve(assumptions)
            _record(transcript, solver, assumptions, answer)
            assert answer == load(CdclSolver(), nvars, clauses).solve(assumptions)
            if answer:
                assert _satisfies(solver.model, clauses)
        # increments only grow between rescales
        var_rescaled += solver.var_inc < 1e99
        cla_rescaled += solver.cla_inc < 1e19
    assert var_rescaled >= 30 and cla_rescaled >= 1
    assert transcript.hexdigest()[:16] == "2510f7211ea049d9"


def test_default_parameters_keep_their_transcript():
    rng = random.Random(7304)
    nvars, nclauses = 100, 426
    transcript = hashlib.sha256()
    for _ in range(10):
        clauses = _random_formula(rng, nvars, nclauses)
        solver = load(CdclSolver(), nvars, clauses)
        for _ in range(5):
            assumptions = _random_assumptions(rng, nvars)
            answer = solver.solve(assumptions)
            _record(transcript, solver, assumptions, answer)
            if answer:
                assert _satisfies(solver.model, clauses)
            else:
                assert set(solver.conflict) <= set(assumptions)
    assert transcript.hexdigest()[:16] == "7a46c82680db9de3"


def test_decisions_take_the_most_active_variable_first_ties_by_variable():
    # [-1, -2] with both phases +1: the first decision is true and forces
    # the other variable false
    for activity, model in (([0.0, 1.0], [-1, 1]), ([0.0, 0.0], [1, -1])):
        solver = load(CdclSolver(), 2, [[-1, -2]])
        solver.polarity[1:] = [1, 1]
        solver.activity[1:] = activity
        assert solver.solve()
        assert solver.model[1:] == model


def test_a_tautology_is_not_stored():
    solver = load(CdclSolver(), 2, [[1, 2]])
    assert solver.add_clause([2, 1, -2])
    assert len(solver.clauses) == 1 and solver.ok


def test_variables_added_across_gap_doublings_get_fresh_slots():
    rng = random.Random(7303)
    solver = CdclSolver()
    clauses = []
    nvars = 0
    # the gap doubles at 1, 2, 4, 8, 16, 32 and 64 variables
    for size in (1, 2, 3, 5, 8, 9, 16, 17, 31, 33, 64, 65):
        while nvars < size:
            nvars += 1
            assert solver.new_var() == nvars
            assert solver.values[nvars] == solver.values[-nvars] == 0
        lits = [lit for v in range(1, nvars + 1) for lit in (v, -v)]
        assert len({id(solver.watches[lit]) for lit in lits}) == 2 * nvars
        for _ in range(4 * (size - len(clauses) // 4)):
            vs = rng.sample(range(1, nvars + 1), min(3, nvars))
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
            solver.add_clause(clauses[-1])
        for _ in range(3):
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, nvars + 1), min(nvars, rng.randint(0, 4)))
            ]
            answer = solver.solve(assumptions)
            assert answer == load(NaiveSolver(), nvars, clauses).solve(assumptions)
            if answer:
                assert len(solver.model) == nvars + 1
                assert all(solver.model[v] != 0 for v in range(1, nvars + 1))
                assert _satisfies(solver.model, clauses)
            # level 0: each fixed literal is true, its negation false
            assert all(solver.values[lit] == 1 == -solver.values[-lit]
                       for lit in solver.trail)
        _assert_watched_once(solver)
