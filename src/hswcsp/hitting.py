"""Minimum-cost hitting vectors over a pool of core vectors.

A vector hits the pool when no core dominates it, i.e. for every core it is
strictly above the core in at least one component. The search works in
level-index space: raising component i above a core's level only ever
targets the next level up, and siblings in the branch tree are capped at
the core's level so the subtrees partition the solution space (split by the
first component that ends up above the core).

A HittingProblem is meant to persist across the steps of a solve: the
caller adds each newly pooled core with add_cores, at O(kept cores * m)
per core, instead of rebuilding the problem. Because cores are only ever
added, the minimum hitting cost only rises, so the problem keeps the last
optimum it proved as a floor; the next cost search stops at the first
hitter costing no more than the floor, which is then optimal.

The tie-break among optimal hitters (lexicographically least level-index
tuple) is a separate pass. It fixes components left to right at the lowest
level whose suffix can still be completed within the optimal cost. The
optimal hitter the cost search found serves as a witness that the current
prefix can be completed, so only the levels below the witness's need a
check; a successful check yields a completion that becomes the new
witness. A check is the same branch-and-bound search, run on the same
persistent problem with the prefix fixed; no reduced problem is built.

The search keeps its nodes on an explicit stack, so a pool that forces
one raise per component searches as deep as it needs to.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Sequence

from .model import SearchAborted


class PoolSaturatedError(RuntimeError):
    """Some core has every component at its maximum level; nothing hits it."""


class HittingProblem:
    """Per-function level sets plus a growing pool of cores, index-encoded.

    Built empty and grown with add_cores. Dominated cores (componentwise <=
    another core) are dropped on insertion; hitting the dominating core
    hits them for free. Kept cores stay in first-appearance order, so a
    problem grown core by core equals one built from the whole pool.

    `floor` is a lower bound on the minimum hitting cost. It starts at the
    sum of the minimum levels and min_cost_hitting_vector raises it to each
    optimum it proves; adding cores can only raise the optimum, so the
    floor stays a lower bound for the life of the problem.
    """

    def __init__(
        self,
        levels: Sequence[Sequence[int]],
        pool: Iterable[Sequence[int]] = (),
    ):
        self.levels = tuple(tuple(ls) for ls in levels)
        if not self.levels:
            raise ValueError("need at least one function")
        for ls in self.levels:
            if not ls or any(a >= b for a, b in zip(ls, ls[1:])):
                raise ValueError(f"levels {ls} must be nonempty strictly ascending")
        self.m = len(self.levels)
        self.max_idx = tuple(len(ls) - 1 for ls in self.levels)
        self._index_of = [{c: i for i, c in enumerate(ls)} for ls in self.levels]
        self.cores: tuple[tuple[int, ...], ...] = ()
        # components that can still be raised above the core; empty == unhittable
        self.core_raisable: tuple[tuple[int, ...], ...] = ()
        self.saturated = False
        self.floor = self.min_cost()
        self.add_cores(pool)

    def add_cores(self, pool: Iterable[Sequence[int]]) -> None:
        """Insert cores (as cost vectors) in order, O(kept cores * m) each.

        A core dominated by a kept one (duplicates included) is dropped;
        kept cores it dominates are removed. Every core is validated before
        any is inserted.
        """
        new = [self._encode(k) for k in pool]
        if not new:
            return
        kept = list(zip(self.cores, self.core_raisable))
        for k in new:
            if any(all(a <= b for a, b in zip(k, k2)) for k2, _ in kept):
                continue
            kept = [(k2, r) for k2, r in kept if not all(b <= a for a, b in zip(k, k2))]
            kept.append((k, tuple(i for i in range(self.m) if k[i] < self.max_idx[i])))
        self.cores = tuple(k for k, _ in kept)
        self.core_raisable = tuple(r for _, r in kept)
        self.saturated = any(not r for r in self.core_raisable)

    def _encode(self, core: Sequence[int]) -> tuple[int, ...]:
        core = tuple(core)
        if len(core) != self.m:
            raise ValueError(f"core {core} has length {len(core)}, expected {self.m}")
        try:
            return tuple(self._index_of[i][c] for i, c in enumerate(core))
        except KeyError:
            raise ValueError(f"core {core} uses a cost that is not a level") from None

    def vector_at(self, idx: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.levels[i][t] for i, t in enumerate(idx))

    def min_cost(self) -> int:
        return sum(ls[0] for ls in self.levels)


def _make_stop_poll(should_stop: Callable[[], bool] | None) -> Callable[[], None]:
    # polling a clock at every node costs more than the node; sample it
    if should_stop is None:
        return lambda: None
    calls = 0

    def poll() -> None:
        nonlocal calls
        calls += 1
        if calls & 255 == 1 and should_stop():
            raise SearchAborted("hitting search interrupted")

    return poll


def _branch_search(
    p: HittingProblem,
    bound: float,
    stop_at: float,
    should_stop: Callable[[], bool] | None,
    prefix: Sequence[int] = (),
    live: Sequence[int] | None = None,
) -> tuple[int, tuple[int, ...]] | None:
    """Cheapest hitting vector with cost strictly below `bound`.

    Returns (cost, level-index tuple) or None. The search stops early at
    the first hitter costing at most `stop_at`: with stop_at = inf that is
    the first hitter found; with stop_at a lower bound on the optimum
    (the problem's floor) it is an optimal one. Branches on an unhit core
    with the fewest raise options, cheapest increment first. Nodes carry a
    packing bound: cores whose raise options are pairwise disjoint cannot
    share a raise, so their cheapest raises are owed additively (and any
    single core's cheapest raise is owed regardless).

    With a `prefix` the search covers only vectors that start with it: the
    prefix components start and are capped at its levels, so only the
    free suffix components are raised. `live` must then list the indices
    of the cores the prefix leaves unhit; they are the only cores the
    search sees. The returned tuple is a whole vector either way.

    Nodes are generators driven from an explicit stack: a node yields the
    cost of each child it wants searched and, when resumed, reads the
    child's result from `returned`, so the depth of the tree (one level
    per raise) is not limited by the interpreter's recursion limit. Nodes
    return None, so next() ends each with its default instead of a
    StopIteration that the stack loop would have to catch.
    """
    levels = p.levels
    if live is None:
        cores, raisable = p.cores, p.core_raisable
    else:
        cores = [p.cores[ci] for ci in live]
        raisable = [p.core_raisable[ci] for ci in live]
    ncores = len(cores)
    v = [*prefix, *[0] * (p.m - len(prefix))]
    caps = [*prefix, *p.max_idx[len(prefix):]]
    hitcnt = [0] * ncores
    best = bound
    best_vec: tuple[int, ...] | None = None
    poll = _make_stop_poll(should_stop)
    returned = False  # the result of the node that returned last

    def node(cost: int) -> Iterator[int]:
        nonlocal best, best_vec, returned
        poll()
        if cost >= best:
            returned = False
            return
        pick = None
        pick_opts: list[int] | None = None
        owed = 0  # additive packing bound over claimed components
        single = 0
        packed = 0
        for ci in range(ncores):
            if hitcnt[ci]:
                continue
            k = cores[ci]
            opts = []
            mask = 0
            cheapest = -1
            for i in raisable[ci]:
                if k[i] < caps[i]:
                    opts.append(i)
                    mask |= 1 << i
                    d = levels[i][k[i] + 1] - levels[i][v[i]]
                    if cheapest < 0 or d < cheapest:
                        cheapest = d
            if not opts:
                returned = False  # nothing can hit this core under the caps
                return
            if cheapest > single:
                single = cheapest
            if not mask & packed:
                owed += cheapest
                packed |= mask
            if pick_opts is None or len(opts) < len(pick_opts):
                pick, pick_opts = k, opts
        if pick_opts is None:
            best = cost
            best_vec = tuple(v)
            returned = True
            return
        if cost + (owed if owed > single else single) >= best:
            returned = False
            return
        pick_opts.sort(key=lambda i: (levels[i][pick[i] + 1] - levels[i][v[i]], i))
        saved_caps = []
        done = False
        for i in pick_opts:
            t = pick[i] + 1
            if t <= caps[i]:
                delta = levels[i][t] - levels[i][v[i]]
                old = v[i]
                v[i] = t
                touched = []
                for ci, k in enumerate(cores):
                    if old <= k[i] < t:
                        hitcnt[ci] += 1
                        touched.append(ci)
                yield cost + delta
                v[i] = old
                for ci in touched:
                    hitcnt[ci] -= 1
                if returned and best <= stop_at:
                    done = True
                    break
            saved_caps.append((i, caps[i]))
            caps[i] = min(caps[i], pick[i])
        for i, c in reversed(saved_caps):
            caps[i] = c
        returned = done

    stack = [node(sum(ls[t] for ls, t in zip(levels, v)))]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(node(child))
    if best_vec is None:
        return None
    return int(best), best_vec


def _lex_min_at_cost(
    p: HittingProblem,
    target: int,
    should_stop: Callable[[], bool] | None,
    witness: Sequence[int],
) -> tuple[int, ...]:
    """Lexicographically least level-index hitter of cost exactly `target`.

    `target` must be the optimal hitting cost and `witness` a level-index
    hitter of that cost. Fixes components left to right at the lowest level
    that still lets the remaining components complete a hitter within the
    budget. The witness always agrees with the fixed prefix and completes
    it, so at each position only the levels below the witness's need a
    check. Each check is a first-solution _branch_search on `p` itself
    under the prefix, fed the cores the prefix leaves unhit, a list this
    pass narrows as it fixes components; the hitter a check finds becomes
    the next witness. When no lower level completes, the witness's level
    is taken unsearched.
    """
    cores = p.cores
    witness = tuple(witness)
    live: Sequence[int] = range(len(cores))  # cores the fixed prefix leaves unhit
    for pos in range(p.m):
        for t in range(witness[pos]):
            still = [ci for ci in live if cores[ci][pos] >= t]
            found = _branch_search(
                p, target + 1, math.inf, should_stop, (*witness[:pos], t), still
            )
            if found is not None:
                witness = found[1]
                break
        live = [ci for ci in live if cores[ci][pos] >= witness[pos]]
    if live or sum(ls[t] for ls, t in zip(p.levels, witness)) != target:
        raise RuntimeError(
            f"lex-min pass ended on {witness}, which is not a hitter of cost {target}"
        )
    return witness


def min_cost_hitting_vector(
    p: HittingProblem,
    prune_at: float | int | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> tuple[int, ...] | None:
    """Cheapest vector hitting every core, as a tuple of costs.

    Ties go to the lexicographically smallest level-index tuple. With
    `prune_at` set, returns None as soon as it is proven that no hitting
    vector costs strictly less than it. Raises PoolSaturatedError when no
    hitting vector exists at all. The search stops at the first hitter
    costing `p.floor`, and the optimum it proves becomes the new floor.
    """
    if p.saturated:
        raise PoolSaturatedError("a pooled core sits at every maximum level")
    bound = math.inf if prune_at is None else prune_at
    found = _branch_search(p, bound, p.floor, should_stop)
    if found is None:
        return None
    cost, witness = found
    p.floor = cost
    return p.vector_at(_lex_min_at_cost(p, cost, should_stop, witness))


def cost_bounded_hitting_vector(
    p: HittingProblem,
    ub: float | int,
    should_stop: Callable[[], bool] | None = None,
) -> tuple[int, ...] | None:
    """Some vector hitting every core with cost strictly below ub, else None.

    No optimality claim; the search leans toward cheap levels and stops at
    the first feasible leaf. A saturated pool yields None.
    """
    if p.saturated:
        return None
    found = _branch_search(p, ub, math.inf, should_stop)
    if found is None:
        return None
    return p.vector_at(found[1])
