"""Conflict-driven clause learning SAT solver with assumption support.

Self-contained MiniSat-style core: two-watched-literal propagation,
first-UIP conflict analysis, VSIDS decisions with phase saving, Luby
restarts, and activity-based learned-clause reduction. Literals are signed
integers (variable ids start at 1). Assumptions are enqueued as decisions
on their own levels, so learned clauses stay valid across calls and the
solver can be reused incrementally with different assumption sets.

Values and watch lists are lists indexed by literal: `values[lit]` is 1
when lit is true, -1 when it is false and 0 while its variable is
unassigned, and `values[-v]` is the mirror of `values[v]`, kept at the
end of the list by Python's negative indexing. Free slots wait in a gap
between the two halves, and new_var doubles the room when the gap runs
out. So reading a literal's value is one index, with no sign test. A
variable's `reason` is only meaningful while it is assigned: backtracking
leaves it stale, and every enqueue sets it.

A decision takes the free variable of highest activity, the lowest
variable among equals, in its saved phase. Until a call's first conflict
nothing bumps an activity or unassigns a variable, so solve reads its
decisions from the variables sorted once in that order. At the first
conflict, before analysis bumps anything, the unread rest becomes the
decision heap of (-activity, variable) pairs (a sorted list is a valid
heap), which conflict analysis and backtracking push onto from then on.
Between two conflicts the trail only grows, so the restart and
learned-clause limits, once found unreached, stay unreached until the
next conflict, restart or reduction; solve tests them after each of
those, not at every level.

solve() returns True (model available) or False (unsatisfiable under the
given assumptions), and raises SearchAborted when its should_stop
predicate fires at a conflict. However it ends, a raise included, it
leaves through one backtrack to decision level 0, ready for add_clause.
After a True answer, `model[v]` is 1 when variable v is true and -1 when
it is false (`model[0]` is 0), and that backtrack saves the model value of
every variable not fixed at level 0 as its phase. Every False answer also
sets `conflict`, the failed assumptions: a subset of the assumption
literals that is unsatisfiable on its own together with the clauses
(MiniSat's analyzeFinal; Een & Sorensson, SAT 2003). It is found by
walking the reasons of the falsified assumption back to the assumption
decisions, and is empty when the clauses are unsatisfiable at level 0.

Misuse raises real exceptions, kept under `python -O`: an unknown variable
(or literal 0) in a clause or an assumption is a ValueError, and a clause
added mid-search (from a should_stop callback) is a RuntimeError.
"""

from __future__ import annotations

from heapq import heappush, heappop
from typing import Callable, Iterable, Sequence

from .model import SearchAborted


class _Clause:
    __slots__ = ("lits", "act", "learnt")

    def __init__(self, lits: list[int], learnt: bool):
        self.lits = lits
        self.act = 0.0
        self.learnt = learnt

    def __repr__(self) -> str:  # debugging aid
        return f"Clause({self.lits})"


def _luby(x: int) -> int:
    # the reluctant-doubling sequence 1 1 2 1 1 2 4 ... at 0-based index x
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class CdclSolver:
    RESTART_BASE = 100
    VAR_DECAY = 0.95
    CLA_DECAY = 0.999

    def __init__(self) -> None:
        self.nvars = 0
        self.ok = True
        self.clauses: list[_Clause] = []
        self.learned: list[_Clause] = []
        # indexed by literal; see the module docstring
        self.watches: list[list[_Clause]] = [[]]
        self.values: list[int] = [0]
        self.level: list[int] = [0]
        self.reason: list[_Clause | None] = [None]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity: list[float] = [0.0]
        self.polarity: list[int] = [-1]
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.order: list[tuple[float, int]] = []
        self.seen = bytearray(1)
        self.model: list[int] = []
        self.conflict: list[int] = []  # failed assumptions of the last False
        self.max_learnts = 4000.0

    # --- variables and clauses ---

    def new_var(self) -> int:
        self.nvars += 1
        v = self.nvars
        if 2 * v >= len(self.values):
            # no free pair of slots for v and -v: open a gap of 2 * v
            # slots before the negative half, so the shift of that half
            # costs amortized O(1) per variable
            self.values[v:v] = [0] * (2 * v)
            self.watches[v:v] = [[] for _ in range(2 * v)]
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.polarity.append(-1)
        self.seen.append(0)
        return v

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a problem clause; call before or between solves (at level 0).
        Returns False once the formula is known unsatisfiable."""
        if self.trail_lim:
            raise RuntimeError("clauses must be added at decision level 0")
        distinct = set(lits)
        lits = sorted(distinct, key=abs)
        if lits and not 1 <= abs(lits[0]) <= abs(lits[-1]) <= self.nvars:
            raise ValueError(f"unknown variable in clause {lits}")
        if not self.ok:
            return False
        if any(-lit in distinct for lit in lits):
            return True  # tautology
        values = self.values
        out: list[int] = []
        for lit in lits:
            # every assigned variable is fixed at level 0 here
            if values[lit] == 1:
                return True  # already satisfied forever
            if values[lit] == 0:
                out.append(lit)  # a permanently false literal drops out
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            self._enqueue(out[0], None)
            if self._propagate() is not None:
                self.ok = False
            return self.ok
        c = _Clause(out, learnt=False)
        self.clauses.append(c)
        self.watches[out[0]].append(c)
        self.watches[out[1]].append(c)
        return True

    # --- trail ---

    def _enqueue(self, lit: int, reason: _Clause | None) -> None:
        values = self.values
        values[lit] = 1
        values[-lit] = -1
        v = lit if lit > 0 else -lit
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _backtrack(self, target: int, requeue: bool = True) -> None:
        """Undo every level above target, saving each unassigned variable's
        value as its phase. Unassigned variables go back on the decision
        heap unless requeue is False, which every exit from solve passes:
        the next solve starts from a fresh sorted list."""
        trail_lim = self.trail_lim
        if len(trail_lim) <= target:
            return  # keep qhead: level-0 enqueues may still await propagation
        bound = trail_lim[target]
        del trail_lim[target:]
        trail = self.trail
        values = self.values
        polarity = self.polarity
        undone = trail[bound:]
        del trail[bound:]
        for lit in undone:
            values[lit] = values[-lit] = 0
            if lit > 0:
                polarity[lit] = 1
            else:
                polarity[-lit] = -1
        if requeue:
            activity = self.activity
            order = self.order
            for lit in undone:
                v = lit if lit > 0 else -lit
                heappush(order, (-activity[v], v))
        self.qhead = min(self.qhead, bound)

    # --- propagation ---

    def _propagate(self) -> _Clause | None:
        trail = self.trail
        values = self.values
        watches = self.watches
        level = self.level
        reason = self.reason
        lvl = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            ws = watches[false_lit]
            if not ws:
                continue
            # one pass: a clause that stays watched here moves down to j
            j = 0
            for i, c in enumerate(ws):
                lits = c.lits
                first = lits[0]
                if first == false_lit:
                    first = lits[0] = lits[1]
                    lits[1] = false_lit
                v0 = values[first]
                if v0 == 1:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    lk = lits[k]
                    if values[lk] != -1:
                        lits[1] = lk
                        lits[k] = false_lit
                        watches[lk].append(c)
                        break
                else:
                    if v0 == -1:
                        # c at ws[i] and every entry after it stay
                        del ws[j:i]
                        self.qhead = qhead
                        return c
                    ws[j] = c
                    j += 1
                    # unit: enqueue first with reason c
                    values[first] = 1
                    values[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = lvl
                    reason[v] = c
                    trail.append(first)
            del ws[j:]
        self.qhead = qhead
        return None

    # --- conflict analysis ---

    def _bump_var(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for x in range(1, self.nvars + 1):
                self.activity[x] *= 1e-100
            self.var_inc *= 1e-100
        heappush(self.order, (-self.activity[v], v))

    def _bump_clause(self, c: _Clause) -> None:
        c.act += self.cla_inc
        if c.act > 1e20:
            for d in self.learned:
                d.act *= 1e-20
            self.cla_inc *= 1e-20

    def _analyze(self, confl: _Clause) -> tuple[list[int], int]:
        """First-UIP learned clause and the level to backjump to."""
        seen = self.seen
        level = self.level
        reason = self.reason
        trail = self.trail
        cur_level = len(self.trail_lim)
        learnt: list[int] = [0]
        touched: list[int] = []
        counter = 0
        p = 0
        idx = len(trail) - 1
        c = confl
        while True:
            if c.learnt:
                self._bump_clause(c)
            for q in c.lits[1:] if p else c.lits:
                vq = abs(q)
                if not seen[vq] and level[vq] > 0:
                    seen[vq] = 1
                    touched.append(vq)
                    self._bump_var(vq)
                    if level[vq] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            vp = abs(p)
            seen[vp] = 0
            counter -= 1
            if counter == 0:
                break
            c = reason[vp]
            if c is None:
                raise RuntimeError(f"implied literal {p} has no reason")
        learnt[0] = -p
        for v in touched:
            seen[v] = 0
        if len(learnt) == 1:
            bt = 0
        else:
            # move the highest-level remaining literal to position 1
            hi = 1
            for k in range(2, len(learnt)):
                if level[abs(learnt[k])] > level[abs(learnt[hi])]:
                    hi = k
            learnt[1], learnt[hi] = learnt[hi], learnt[1]
            bt = level[abs(learnt[1])]
        return learnt, bt

    def _analyze_final(self, p: int) -> list[int]:
        """Assumptions that imply -p, plus p itself: the failed-assumption
        core once assumption p is found false. Call before backtracking."""
        out = [p]
        if not self.trail_lim:
            return out
        seen = self.seen
        level = self.level
        reason = self.reason
        trail = self.trail
        seen[abs(p)] = 1
        for k in range(len(trail) - 1, self.trail_lim[0] - 1, -1):
            lit = trail[k]
            x = abs(lit)
            if not seen[x]:
                continue
            c = reason[x]
            if c is None:
                # a decision below the assumption count is an assumption
                out.append(lit)
            else:
                for q in c.lits[1:]:
                    if level[abs(q)] > 0:
                        seen[abs(q)] = 1
            seen[x] = 0
        seen[abs(p)] = 0
        return out

    # --- learned clause management ---

    def _locked(self, c: _Clause) -> bool:
        # a stale reason belongs to an unassigned variable, so the value
        # test rejects it
        lit = c.lits[0]
        return self.reason[abs(lit)] is c and self.values[lit] == 1

    def _reduce_db(self) -> None:
        self.learned.sort(key=lambda c: c.act)
        keep: list[_Clause] = []
        drop = len(self.learned) // 2
        for pos, c in enumerate(self.learned):
            if pos < drop and len(c.lits) > 2 and not self._locked(c):
                self.watches[c.lits[0]].remove(c)
                self.watches[c.lits[1]].remove(c)
            else:
                keep.append(c)
        self.learned = keep
        self.max_learnts *= 1.3

    # --- main loop ---

    def solve(
        self,
        assumptions: Sequence[int] = (),
        should_stop: Callable[[], bool] | None = None,
    ) -> bool:
        nvars = self.nvars
        for p in assumptions:
            if not 1 <= abs(p) <= nvars:
                raise ValueError(f"unknown assumption literal {p}")
        self.conflict = []
        if not self.ok:
            return False
        # decisions read `unread`, the variables by falling activity (a
        # stable sort keeps ties in variable order), until the first
        # conflict, and the heap after it. Variables fixed at level 0 are
        # listed too: they are never picked, so the decisions are those
        # without them.
        activity = self.activity
        unread = iter(sorted(
            range(1, nvars + 1), key=activity.__getitem__, reverse=True
        ))
        order = self.order = []
        values = self.values
        polarity = self.polarity
        level = self.level
        reason = self.reason
        trail = self.trail
        trail_lim = self.trail_lim
        num_assumptions = len(assumptions)
        propagate = self._propagate
        since_restart = 0
        restart_idx = 0
        limit = _luby(0) * self.RESTART_BASE
        # the trail only grows between conflicts, so the restart and
        # learned-clause limits are tested after a conflict, a restart or
        # a reduction, and then not again until the next one
        check_limits = True
        try:
            while True:
                confl = propagate()
                if confl is not None:
                    since_restart += 1
                    if should_stop is not None and should_stop():
                        raise SearchAborted("sat search interrupted")
                    if not trail_lim:
                        self.ok = False
                        return False
                    if not order:
                        # the first conflict: what is left of `unread`
                        # becomes the heap before _analyze pushes onto it.
                        # At a later one `unread` is spent.
                        self.order = order = [(-activity[v], v) for v in unread]
                    learnt, bt = self._analyze(confl)
                    self._backtrack(bt)
                    if len(learnt) == 1:
                        self._enqueue(learnt[0], None)
                    else:
                        c = _Clause(learnt, learnt=True)
                        c.act = self.cla_inc
                        self.learned.append(c)
                        self.watches[learnt[0]].append(c)
                        self.watches[learnt[1]].append(c)
                        self._enqueue(learnt[0], c)
                    self.var_inc /= self.VAR_DECAY
                    self.cla_inc /= self.CLA_DECAY
                    check_limits = True
                    continue
                if check_limits:
                    if since_restart >= limit:
                        since_restart = 0
                        restart_idx += 1
                        limit = _luby(restart_idx) * self.RESTART_BASE
                        self._backtrack(0)
                        continue
                    if len(self.learned) >= self.max_learnts + len(trail):
                        self._reduce_db()
                    else:
                        check_limits = False
                # open a level: the next assumption, else a decision
                lvl = len(trail_lim)
                if lvl < num_assumptions:
                    lit = assumptions[lvl]
                    if values[lit] == -1:
                        self.conflict = self._analyze_final(lit)
                        return False
                    trail_lim.append(len(trail))
                    if values[lit] == 1:
                        continue
                else:
                    for v in unread:
                        if values[v] == 0:
                            break
                    else:
                        while order:
                            v = heappop(order)[1]
                            if values[v] == 0:
                                break
                        else:
                            self.model = values[: nvars + 1]
                            return True
                    lit = v if polarity[v] > 0 else -v
                    trail_lim.append(len(trail))
                values[lit] = 1
                values[-lit] = -1
                v = lit if lit > 0 else -lit
                level[v] = lvl + 1
                reason[v] = None
                trail.append(lit)
        finally:
            # every exit, an exception's too, leaves level 0
            self._backtrack(0, requeue=False)
