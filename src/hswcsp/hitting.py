"""Minimum-cost hitting vectors over a pool of core vectors.

A vector hits the pool when no core dominates it, i.e. for every core it is
strictly above the core in at least one component. Both searches,
min_cost_hitting_vector and cost_bounded_hitting_vector, return a hitter
or None, and None means that nothing hits the pool below the search's
bound; with an unbounded budget, that nothing hits the pool at all. That
happens exactly when the pool holds a core at every maximum level, which
has no raise option: the search branches on it first and finds no child,
so it needs no separate check. Both run one
branch-and-bound search, which returns the first hitter it reaches below
a fixed budget. It works in level-index space: raising component i above
a core's level only ever targets the next level up, and siblings in the
branch tree are capped at the core's level so the subtrees partition the
solution space (split by the first component that ends up above the core).

A HittingProblem is meant to persist across the steps of a solve: the
caller appends each newly pooled core with add_cores, at O(m * levels)
per core, instead of rebuilding the problem. The problem is append-only:
a core keeps its index for good, so the per-component masks of the cores
each raise hits only ever gain bits. Nothing is filtered. A duplicate or
a dominated core (componentwise <= another) would be redundant, not
wrong: every vector that hits the other core hits it too, so it changes
no hitting cost; and the engine pools neither, since its pool drops
duplicates and grown cores are maximal. Because cores are only ever
added, the minimum hitting cost only rises, so the problem keeps a
floor, a lower bound on it. The cost search deepens from the floor
(IDA*, Korf 1985): each try searches at the budget floor + 1, so, costs
being integers, the first hitter it finds costs the floor and is
optimal. A refuted try proves a higher floor, the least cost plus
packing bound among the nodes it pruned, and the next try starts from
there.

The tie-break among optimal hitters (lexicographically least level-index
tuple) is a separate pass. It fixes components left to right at the lowest
level whose suffix can still be completed within the optimal cost. The
optimal hitter the cost search found serves as a witness that the current
prefix can be completed, so only the levels below the witness's need a
check; a successful check yields a completion that becomes the new
witness. A check is the same search at the budget optimal cost + 1, run
on the same persistent problem with the prefix fixed; no reduced problem
is built. The free suffix starts at its lowest levels with no caps, so a
check at position pos asks only whether the suffix pos+1.. can hit the
cores the prefix leaves unhit, u, at a suffix cost below b, the budget
less the prefix's cost. A refuted check is kept as a nogood (u, b) of its
position, and a later check there whose unhit cores include u and whose
budget is at most b is refuted without a search: it asks the suffix to
hit more cores for less. This caches refuted subproblems for the life of
the problem, as context-based caching does in branch and bound over
graphical models (Dechter & Mateescu, AIJ 2007). A nogood answers only
checks that a search would refute, so the pass returns the same hitter.

A search node keeps one entry per core its vector leaves unhit: the
core's raise options and its cheapest raise. A child differs from its
parent by one raise and by the caps of its earlier siblings, so it builds
its entries from its parent's in one pass: it drops the cores the raise
hits, recounts only the cores that a sibling cap touches, lowers the
cheapest raise of the cores with an option on the raised component, and
keeps the rest as they are. The node prunes on a packing bound, the
cheapest raises owed by unhit cores that share no raise option, packed
once in kept order and, when that does not prune, once more dearest
first. The search keeps its nodes on an explicit stack, so a pool that
forces one raise per component searches as deep as it needs to.

A node branches on an unhit core with the fewest raise options and tries
its raises cheapest increment first. The searches that must return an
optimal hitter, the cost search's tries and the lex-min checks, break
cost ties toward the raise that hits the most of the node's unhit cores
(the greedy set-cover choice, Chvátal 1979), then toward the lower
component index. This reaches an optimal hitter in fewer nodes and
changes no answer: the lex-min pass returns the same hitter from any
optimal witness, and its refuted checks and nogoods do not depend on the
witness. The bounded search breaks ties by component index alone, since
the first hitter it finds is its answer, the vector the caller probes
next.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Sequence

from .model import SearchAborted


class HittingProblem:
    """Per-function integer level sets plus an append-only pool of cores, index-encoded.

    Built empty and grown with add_cores. Every core given is kept, in
    order, with its index for the life of the problem. A duplicate or
    dominated core (componentwise <= another) is redundant, not wrong,
    since every vector that hits the other core hits it too, so it changes
    no hitting cost. Engine pools hold neither anyway.

    Alongside each core the problem keeps what the search reads:
    `core_steps`, one (i, t, level value, 1 << i) per component i that can
    still be raised above the core, where t is the level index just above
    it (no steps means nothing hits the core);
    `core_untouched`, the core's search entry (-cheapest increment, count,
    core index, component mask) of its raise options from the lowest
    levels with no cap; and the masks `below[i][t]`, whose bit ci is set
    when raising component i to level index t hits core ci. Adding a core
    costs O(m * levels).

    `floor` is a lower bound on the minimum hitting cost. It starts at the
    sum of the minimum levels and min_cost_hitting_vector raises it to
    each bound a refuted try proves, so an optimum it finds costs exactly
    the floor; adding cores can only raise the optimum, so the floor stays
    a lower bound for the life of the problem.

    `nogoods[pos]` lists the refuted lex-min checks at position pos, each
    as (u, b): no levels of components pos+1.. hit every core whose bit is
    set in u at a cost below b. add_cores keeps every nogood true: a core
    keeps its index, so the bits of u keep their meaning, and the cores
    appended after a nogood are not in its u, so they ask nothing more of
    the suffix.
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
            ints = all(isinstance(c, int) for c in ls)
            if not ls or not ints or any(a >= b for a, b in zip(ls, ls[1:])):
                raise ValueError(f"levels {ls} must be nonempty strictly ascending ints")
        self.m = len(self.levels)
        self.max_idx = tuple(len(ls) - 1 for ls in self.levels)
        self._index_of = [{c: i for i, c in enumerate(ls)} for ls in self.levels]
        self.cores: list[tuple[int, ...]] = []
        self.core_steps: list[tuple[tuple[int, int, int, int], ...]] = []
        self.core_untouched: list[tuple[int, int, int, int]] = []
        self.below = [[0] * len(ls) for ls in self.levels]
        self.nogoods: list[list[tuple[int, int]]] = [[] for _ in self.levels]
        self.floor = self.min_cost()
        self.add_cores(pool)

    def add_cores(self, pool: Iterable[Sequence[int]]) -> None:
        """Append cores (as cost vectors) in order, O(m * levels) each.

        Every core is validated before any is appended.
        """
        new = [self._encode(k) for k in pool]
        cores = self.cores
        levels = self.levels
        for k in new:
            ci = len(cores)
            bit = 1 << ci
            up = tuple(i for i in range(self.m) if k[i] < self.max_idx[i])
            for i in up:
                masks = self.below[i]
                for t in range(k[i] + 1, len(masks)):
                    masks[t] |= bit
            steps = tuple((i, k[i] + 1, levels[i][k[i] + 1], 1 << i) for i in up)
            cores.append(k)
            self.core_steps.append(steps)
            self.core_untouched.append((
                -min((lv - levels[i][0] for i, _, lv, _ in steps), default=0),
                len(steps),
                ci,
                sum(1 << i for i in up),
            ))

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


def _untouched_entries(
    p: HittingProblem, cores: int
) -> Iterator[tuple[int, int, int, int]]:
    """`p.core_untouched` of each core in the int `cores`, in kept order."""
    while cores:
        low = cores & -cores
        cores ^= low
        yield p.core_untouched[low.bit_length() - 1]


def _branch_and_bound(
    p: HittingProblem,
    bound: float,
    should_stop: Callable[[], bool] | None,
    prefix: Sequence[int] = (),
    *,
    most_hits: bool = False,
) -> tuple[tuple[int, ...] | None, float]:
    """The first hitter the search reaches that costs strictly below `bound`.

    Returns (found, least): found is that hitter as a level-index tuple,
    or None when no hitter costs less than `bound`. With a budget one
    above a lower bound on the optimum, the first hitter is an optimal
    one, since costs are integers. Branches on an unhit core with the
    fewest raise options (the first such core in kept order), cheapest
    increment first, then lowest component index. With `most_hits`, ties
    on the increment go first to the raise that hits the most cores the
    node leaves unhit; the searches that need only some optimal hitter
    pass it (see the module docstring).

    Nodes carry a packing bound: cores whose raise options are pairwise
    disjoint cannot share a raise, so their cheapest raises are owed
    additively. A node packs its unhit cores greedily in kept order; when
    that does not prune it, it packs them again, largest cheapest
    increment first (then fewest options, then kept order), and is pruned
    on the larger of the two sums. The second packing starts with the
    dearest single core, so it also owes what that core alone owes. Any
    packing is a valid bound, so a pruned subtree holds no hitter cheaper
    than `bound`: the bound changes which nodes are visited, never the
    order of the visited ones or the hitter returned.

    When found is None, `least` is the least cost plus bound over the
    nodes pruned for cost (inf if none was): every hitter lies under some
    pruned node, so no hitter costs less than `least`, which is at least
    `bound`. min_cost_hitting_vector deepens its budget by it.

    The cores the current vector leaves unhit are one int, bit ci for
    core ci. A child that raises component i to level index t clears
    `p.below[i][t]` from it and the parent restores it when resumed. Each
    node builds its entries, (-cheapest increment, option count, ci,
    component mask of the options) of each unhit core in kept order, and
    passes the list to its children, so the list stays alive while they
    run. The root reads `p.core_untouched` and recounts only the cores
    with an option on a prefix component. A child walks its parent's
    entries once: it skips the cores its raise hits, recounts only the
    cores with an option on a component an earlier sibling capped (and is
    pruned on one left with none), lowers the cheapest increment of the
    cores with an option on the raised component to that option's, since a
    raise removes no option and only makes one cheaper, and keeps every
    other entry as it is; in the same pass it packs and picks.

    With a `prefix` the search covers only vectors that start with it: the
    prefix components start and are capped at its levels, so only the
    free suffix components are raised, and the cores the prefix hits are
    cleared from the root's mask. The returned tuple is a whole vector
    either way.

    Nodes are generators driven from an explicit stack, so the depth of
    the tree (one level per raise) is not limited by the interpreter's
    recursion limit. A node yields the arguments of each child it wants
    searched (its cost, the node's entries, the sibling caps, the cores
    the raise hits and the raised component). A leaf that hits sets
    `found` and the stack loop ends there, so a node is resumed only after
    a child's subtree held no hitter and no result is passed back up.
    Nodes return None, so next() ends each with its default instead of a
    StopIteration that the stack loop would have to catch.
    """
    levels, steps, below, cores = p.levels, p.core_steps, p.below, p.cores
    v = [*prefix, *[0] * (p.m - len(prefix))]
    val = [ls[t] for ls, t in zip(levels, v)]  # level values of v
    caps = [*prefix, *p.max_idx[len(prefix):]]
    unhit = (1 << len(p.cores)) - 1
    for i, t in enumerate(prefix):
        unhit &= ~below[i][t]
    found: tuple[int, ...] | None = None
    least = math.inf
    poll = _make_stop_poll(should_stop)
    most = p.m + 1  # more options than any core has

    def node(
        cost: int, parent: Iterable, capped: int, hit: int = 0, r: int = -1
    ) -> Iterator[tuple[int, list, int, int, int]]:
        # parent: the entries to start from, the parent's or, at the root,
        # the untouched ones; capped: the components capped since they were
        # counted; hit: the cores among them that the raise of component r
        # hits (the root raised nothing: r = -1, hit = 0)
        nonlocal found, unhit, least
        poll()
        if cost >= bound:
            if cost < least:
                least = cost
            return
        pick = -1
        pick_n = most
        owed = 0  # additive packing bound, kept order
        packed = 0
        entries = []  # (-cheapest, options, ci, mask) of each unhit core, kept order
        raised = 1 << r if r >= 0 else 0
        raised_levels = levels[r]  # read only below a raise, where r >= 0
        low = hit & -hit
        hit ^= low
        next_hit = low.bit_length() - 1
        for e in parent:
            neg, n, ci, mask = e
            if ci == next_hit:  # hit: drop it
                low = hit & -hit
                hit ^= low
                next_hit = low.bit_length() - 1
                continue
            if mask & capped:  # a cap may have removed an option: recount
                n = 0
                mask = 0
                cheapest = -1
                for i, t, lv, b in steps[ci]:
                    if t <= caps[i]:
                        n += 1
                        mask |= b
                        d = lv - val[i]
                        if cheapest < 0 or d < cheapest:
                            cheapest = d
                if not n:
                    return  # nothing can hit this core under the caps
                neg = -cheapest
                e = (neg, n, ci, mask)
            elif mask & raised:
                d = raised_levels[cores[ci][r] + 1] - val[r]
                if d < -neg:
                    neg = -d
                    e = (neg, n, ci, mask)
            if not mask & packed:
                owed -= neg
                packed |= mask
            entries.append(e)
            if n < pick_n:
                pick, pick_n = ci, n
        if pick < 0:
            found = tuple(v)
            return
        if cost + owed < bound:
            dearest = 0  # additive packing bound, dearest core first
            packed = 0
            for neg, _, _, mask in sorted(entries):
                if not mask & packed:
                    dearest -= neg
                    packed |= mask
            if dearest > owed:
                owed = dearest
        if cost + owed >= bound:
            if cost + owed < least:
                least = cost + owed
            return
        # (sort key, i, t, level value) per raise option; the key is the
        # increment, or (increment, -cores hit) with most_hits
        if most_hits:
            opts = [
                ((lv - val[i], -(unhit & below[i][t]).bit_count()), i, t, lv)
                for i, t, lv, _ in steps[pick]
                if t <= caps[i]
            ]
        else:
            opts = [(lv - val[i], i, t, lv) for i, t, lv, _ in steps[pick] if t <= caps[i]]
        opts.sort()
        saved = unhit
        saved_caps = []
        capped = 0  # components capped by earlier siblings
        for _, i, t, lv in opts:
            old, was = v[i], val[i]
            v[i], val[i] = t, lv
            hit = saved & below[i][t]
            unhit = saved ^ hit
            yield cost + lv - was, entries, capped, hit, i
            v[i], val[i] = old, was
            unhit = saved
            saved_caps.append((i, caps[i]))
            caps[i] = t - 1  # later siblings keep i at or below the core
            capped |= 1 << i
        for i, c in reversed(saved_caps):
            caps[i] = c

    # the root reads its entries lazily, so a dead core ends it early
    stack = [node(sum(val), _untouched_entries(p, unhit), (1 << len(prefix)) - 1)]
    while stack and found is None:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(node(*child))
    return found, least


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
    check. Each check is a first-solution _branch_and_bound on `p` itself
    under the prefix; the hitter a check finds becomes the next witness.
    When no lower level completes, the witness's level is taken
    unsearched. A mask of the cores the fixed prefix leaves unhit and the
    prefix's cost, both kept up as components are fixed, check at the end
    that the result hits every core at cost `target`.

    The mask and the cost also frame each check at level t as (u, b): u,
    the mask less the cores that level t hits, must be hit by the suffix
    at a cost below b, target + 1 less the prefix's cost with level t.
    Before searching, the check scans `p.nogoods[pos]`: a stored (nu, nb)
    with nu a subset of u and b <= nb refutes it, so it is skipped. A
    check that a search refutes appends (u, b). Either way the level is
    refuted, so the pass makes the same choices it would make without
    nogoods.
    """
    witness = tuple(witness)
    unhit = (1 << len(p.cores)) - 1
    cost = 0  # of the fixed prefix
    for pos, (ls, below, nogoods) in enumerate(zip(p.levels, p.below, p.nogoods)):
        for t in range(witness[pos]):
            u = unhit & ~below[t]
            b = target + 1 - cost - ls[t]
            if any(b <= nb and not nu & ~u for nu, nb in nogoods):
                continue
            prefix = (*witness[:pos], t)
            found = _branch_and_bound(p, target + 1, should_stop, prefix, most_hits=True)[0]
            if found is not None:
                witness = found
                break
            nogoods.append((u, b))
        unhit &= ~below[witness[pos]]
        cost += ls[witness[pos]]
    if unhit or cost != target:
        raise RuntimeError(
            f"lex-min pass ended on {witness}, which is not a hitter of cost {target}"
        )
    return witness


def min_cost_hitting_vector(
    p: HittingProblem,
    prune_at: float | int = math.inf,
    should_stop: Callable[[], bool] | None = None,
) -> tuple[int, ...] | None:
    """Cheapest vector hitting every core, as a tuple of costs, or None
    when no hitting vector costs strictly less than `prune_at`.

    Ties go to the lexicographically smallest level-index tuple. With the
    default `prune_at` of inf, None means that nothing hits the pool.

    The cost search deepens iteratively from `p.floor`. Each try searches
    for a hitter costing at most the floor and stops at the first one,
    which is optimal because the floor is a lower bound. A refuted try
    proves that no hitter costs less than the least cost plus packing
    bound among the nodes it pruned, which is above the floor, so that
    becomes the floor and the next try's budget. The tries end at a hitter
    or once the floor reaches `prune_at`. The optimal hitter found is the
    witness of the lex-min pass, which returns the unique lex-min hitter
    whichever optimal witness it starts from.
    """
    while p.floor < prune_at:
        found, least = _branch_and_bound(p, p.floor + 1, should_stop, most_hits=True)
        if found is not None:
            return p.vector_at(_lex_min_at_cost(p, p.floor, should_stop, found))
        p.floor = least
    return None


def cost_bounded_hitting_vector(
    p: HittingProblem,
    ub: float | int,
    should_stop: Callable[[], bool] | None = None,
) -> tuple[int, ...] | None:
    """Some vector hitting every core with cost strictly below ub, else None.

    No optimality claim; the search leans toward cheap levels and stops at
    the first feasible leaf. With ub = inf, None means that nothing hits
    the pool.
    """
    found = _branch_and_bound(p, ub, should_stop)[0]
    return None if found is None else p.vector_at(found)
