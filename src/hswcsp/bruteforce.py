"""Exhaustive oracles and a reproducible instance generator.

Everything here is deliberately naive: full enumeration with hard size
guards. These functions are the reference the optimized solver is tested
against, so they must stay obviously correct.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

from .model import Wcsp, leq

MAX_ASSIGNMENTS = 10_000_000
MAX_VECTORS = 100_000
MAX_MHV_SPACE = 1_000_000


def _assignment_space(w: Wcsp) -> int:
    n = 1
    for d in w.domains:
        n *= d
    return n


def _guard(size: int, limit: int, what: str) -> None:
    if size > limit:
        raise ValueError(f"{what} space {size} exceeds brute-force limit {limit}")


def optimal_cost(w: Wcsp) -> int | None:
    """Minimum total cost over feasible assignments; None if infeasible."""
    _guard(_assignment_space(w), MAX_ASSIGNMENTS, "assignment")
    best: int | None = None
    for a in w.assignments():
        ev = w.evaluate(a)
        if ev.feasible and (best is None or ev.total < best):
            best = ev.total
    return best


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
    v = w.validate_vector(v)
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


# --- instance generation ---

_M64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 pseudo-random stream, spelled out so the sequence can be
    reproduced in any language:

        state  = (state + 0x9E3779B97F4A7C15) mod 2^64
        z      = state
        z      = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
        z      = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
        output = z XOR (z >> 31)

    Bounded draws use plain modulo (the tiny bias is irrelevant here) and
    probabilities use the top 53 bits as a fixed-point fraction.
    """

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def chance(self, p: float) -> bool:
        return (self.next_u64() >> 11) / float(1 << 53) < p


def generate(
    seed: int,
    num_vars: int,
    max_dom: int,
    num_funcs: int,
    max_arity: int = 2,
    cost_range: int = 10,
    hard_density: float = 0.0,
) -> Wcsp:
    """Deterministic random instance.

    One SplitMix64 stream seeded with `seed` drives everything, in this
    order: for each function, its scope (repeated draws of below(num_vars),
    duplicates skipped, until min(max_arity, num_vars) distinct variables)
    then a cost below(cost_range + 1) per scope tuple in lexicographic
    order; afterwards round(hard_density * num_funcs) hard constraints,
    each a scope drawn the same way followed by one chance(hard_density)
    draw per scope tuple deciding whether it is forbidden.

    All domains have size max_dom and top = cost_range + 1, so generated
    tables are entirely sub-top.
    """
    if num_vars < 1:
        raise ValueError("num_vars must be positive")
    if max_dom < 1:
        raise ValueError("max_dom must be positive")
    if num_funcs < 1:
        raise ValueError("num_funcs must be positive")
    if max_arity < 1:
        raise ValueError("max_arity must be positive")
    if cost_range < 0:
        raise ValueError("cost_range must be nonnegative")
    if not (0.0 <= hard_density <= 1.0):
        raise ValueError("hard_density must be in [0, 1]")

    rng = SplitMix64(seed)
    arity = min(max_arity, num_vars)
    domains = [max_dom] * num_vars

    def draw_scope() -> tuple[int, ...]:
        scope: list[int] = []
        while len(scope) < arity:
            x = rng.below(num_vars)
            if x not in scope:
                scope.append(x)
        return tuple(scope)

    functions = []
    for _ in range(num_funcs):
        scope = draw_scope()
        table = {
            t: rng.below(cost_range + 1)
            for t in itertools.product(*(range(domains[x]) for x in scope))
        }
        functions.append((scope, table))

    hard = []
    for _ in range(round(hard_density * num_funcs)):
        scope = draw_scope()
        forbidden = [
            t
            for t in itertools.product(*(range(domains[x]) for x in scope))
            if rng.chance(hard_density)
        ]
        hard.append((scope, forbidden))

    return Wcsp.build(
        num_vars,
        domains,
        functions,
        hard=hard,
        top=cost_range + 1,
        name=f"gen{seed}",
    )
