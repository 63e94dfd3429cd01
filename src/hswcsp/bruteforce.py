"""The exhaustive optimum and a reproducible instance generator.

`optimal_cost` enumerates every assignment under a hard size guard; it is
the independent check of a reported optimum (`hswcsp verify`, the
benchmark's optimum cache) and stays deliberately naive, so that it is
obviously correct. `generate` builds deterministic random instances.
"""

from __future__ import annotations

import itertools

from .model import Wcsp

MAX_ASSIGNMENTS = 10_000_000


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
    tables are entirely sub-top. A hard constraint whose draws forbid no
    tuple is dropped by Wcsp.build; its draws are made all the same, so the
    stream is the same either way.
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
