"""Reference implementations the tests compare the solver against.

Everything here is deliberately naive. `NaiveSolver` is a backtracking SAT
backend for differential tests of the CDCL solver; `leq` and `hits` spell
out the componentwise order; the exhaustive oracles enumerate whole
assignment or level spaces under hard size guards. No solve runs any of
it, so it lives with the tests and must stay obviously correct.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple, Sequence

from hswcsp.bruteforce import MAX_ASSIGNMENTS, _assignment_space, _guard
from hswcsp.model import SearchAborted, Wcsp

MAX_VECTORS = 100_000
MAX_MHV_SPACE = 1_000_000


def load(solver, nvars, clauses):
    """Give `solver` nvars fresh variables and the clauses; return it."""
    for _ in range(nvars):
        solver.new_var()
    for c in clauses:
        solver.add_clause(c)
    return solver


def leq(u: Sequence[int], v: Sequence[int]) -> bool:
    """Componentwise u <= v; u is then dominated by v."""
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return all(a <= b for a, b in zip(u, v))


def hits(u: Sequence[int], pool: Iterable[Sequence[int]]) -> bool:
    """True iff no vector in the pool dominates u.

    Equivalently: for every k in the pool there is a component where u is
    strictly above k.
    """
    return not any(leq(u, k) for k in pool)


class NaiveSolver:
    """Chronological backtracking over the same clause set.

    Exists to cross-check the CDCL solver, so it stays dumb on purpose:
    one static pure-literal pass (gets the unasserted selectors out of the
    way), then depth-first search in variable order with violation checks
    against the occurrence lists. An UNSAT answer blames every assumption,
    which is sound but never lets core growth skip a probe.
    """

    def __init__(self) -> None:
        self.nvars = 0
        self.clauses: list[list[int]] = []
        self.ok = True
        self.model: list[int] = []
        self.conflict: list[int] = []
        self._occur: list[list[list[int]]] | None = None

    def new_var(self) -> int:
        self.nvars += 1
        self._occur = None
        return self.nvars

    def add_clause(self, lits) -> bool:
        lits = sorted(set(lits), key=abs)
        if any(-l in lits for l in lits):
            return True
        if not lits:
            self.ok = False
            return False
        self.clauses.append(list(lits))
        self._occur = None
        return True

    def _occurrences(self) -> list[list[list[int]]]:
        if self._occur is None:
            occ: list[list[list[int]]] = [[] for _ in range(self.nvars + 1)]
            for c in self.clauses:
                for l in c:
                    occ[abs(l)].append(c)
            self._occur = occ
        return self._occur

    def solve(
        self,
        assumptions: Sequence[int] = (),
        should_stop: Callable[[], bool] | None = None,
    ) -> bool:
        self.conflict = list(assumptions)
        if not self.ok:
            return False
        assign = [0] * (self.nvars + 1)
        for lit in assumptions:
            v, s = abs(lit), (1 if lit > 0 else -1)
            if assign[v] == -s:
                return False
            assign[v] = s

        pos = bytearray(self.nvars + 1)
        neg = bytearray(self.nvars + 1)
        for c in self.clauses:
            for l in c:
                if l > 0:
                    pos[l] = 1
                else:
                    neg[-l] = 1
        for v in range(1, self.nvars + 1):
            if assign[v] == 0 and not (pos[v] and neg[v]):
                assign[v] = 1 if pos[v] else -1

        def violated(c: list[int]) -> bool:
            for l in c:
                if (assign[l] if l > 0 else -assign[-l]) != -1:
                    return False
            return True

        if any(violated(c) for c in self.clauses):
            return False

        occ = self._occurrences()
        order = [v for v in range(1, self.nvars + 1) if assign[v] == 0]

        def dfs(i: int) -> bool:
            if should_stop is not None and should_stop():
                raise SearchAborted("naive sat search interrupted")
            if i == len(order):
                return True
            v = order[i]
            for s in (-1, 1):
                assign[v] = s
                if not any(violated(c) for c in occ[v]) and dfs(i + 1):
                    return True
            assign[v] = 0
            return False

        if dfs(0):
            self.model = list(assign)
            return True
        return False


def feasible_cost_profiles(w: Wcsp) -> list[tuple[int, ...]]:
    """Per-function cost tuples of feasible assignments, minimal ones only.

    A vector v admits a satisfying assignment iff some profile here is
    componentwise <= v, so this is the compact certificate for solution
    vectors.
    """
    _guard(_assignment_space(w), MAX_ASSIGNMENTS, "assignment")
    profiles: set[tuple[int, ...]] = set()
    for a in w.assignments():
        ev = w.evaluate(a)
        if ev.feasible:
            profiles.add(ev.per_function)
    return [p for p in profiles if not any(q != p and leq(q, p) for q in profiles)]


def vector_is_solution(w: Wcsp, v: Sequence[int]) -> bool:
    """True iff the CSP induced by bounding each function at v is satisfiable."""
    w.level_indices(v)  # checks that v is a vector of levels
    _guard(_assignment_space(w), MAX_ASSIGNMENTS, "assignment")
    for a in w.assignments():
        ev = w.evaluate(a)
        if ev.feasible and leq(ev.per_function, v):
            return True
    return False


class VectorClassification(NamedTuple):
    cores: list[tuple[int, ...]]
    solutions: list[tuple[int, ...]]


def classify_all_vectors(w: Wcsp) -> VectorClassification:
    """Partition the whole level-product space into cores and solutions."""
    space = 1
    for f in w.cost_functions:
        space *= len(f.levels)
    _guard(space, MAX_VECTORS, "vector")
    profiles = feasible_cost_profiles(w)
    cores, solutions = [], []
    for v in itertools.product(*(f.levels for f in w.cost_functions)):
        if any(leq(p, v) for p in profiles):
            solutions.append(v)
        else:
            cores.append(v)
    return VectorClassification(cores, solutions)


def maximal_cores(w: Wcsp) -> list[tuple[int, ...]]:
    """Cores not dominated by any other core, in classification order.

    Solutions are closed upward, so cores are closed downward: a core
    below another has a single-level raise that is still a core. So a
    core is dominated exactly when one of its single-level raises is one.
    """
    cores = classify_all_vectors(w).cores
    is_core = set(cores)

    def raises(k: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
        for i, (f, c) in enumerate(zip(w.cost_functions, k)):
            j = f.index[c] + 1
            if j < len(f.levels):
                yield k[:i] + (f.levels[j],) + k[i + 1 :]

    return [k for k in cores if not any(r in is_core for r in raises(k))]


def exhaustive_mhv(
    levels: Sequence[Sequence[int]], pool: Iterable[Sequence[int]]
) -> tuple[int, ...] | None:
    """Minimum-cost vector hitting the pool, by full enumeration, or None
    when no vector hits it.

    Ties broken by the lexicographically smallest level-index tuple, the
    same rule the branch-and-bound solver uses.
    """
    levels = [tuple(ls) for ls in levels]
    pool = [tuple(k) for k in pool]
    for k in pool:
        if len(k) != len(levels):
            raise ValueError(f"pool vector {k} has wrong length")
        for ls, c in zip(levels, k):
            if c not in ls:
                raise ValueError(f"{c} is not a level in {ls}")
    space = 1
    for ls in levels:
        space *= len(ls)
    _guard(space, MAX_MHV_SPACE, "level")
    best_key: tuple[int, tuple[int, ...]] | None = None
    best_vec: tuple[int, ...] | None = None
    for idx in itertools.product(*(range(len(ls)) for ls in levels)):
        v = tuple(ls[i] for ls, i in zip(levels, idx))
        if any(leq(v, k) for k in pool):
            continue
        key = (sum(v), idx)
        if best_key is None or key < best_key:
            best_key, best_vec = key, v
    return best_vec
