import itertools
import math
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hswcsp import (
    HittingProblem,
    SearchAborted,
    cost_bounded_hitting_vector,
    min_cost_hitting_vector,
)
import hswcsp.hitting as hitting
from hswcsp.hitting import _branch_and_bound, _lex_min_at_cost
from oracles import exhaustive_mhv, hits

FIG1_LEVELS = [(0, 5, 20), (0, 5, 20)]


def test_problem_keeps_duplicates_and_dominated_cores():
    p = HittingProblem(FIG1_LEVELS, [(5, 0), (5, 5), (5, 5), (0, 5)])
    # (5,0) and (0,5) are componentwise below (5,5) and the repeated (5,5)
    # equals it: redundant, not wrong, so every core stays, in order
    assert p.cores == [(1, 0), (1, 1), (1, 1), (0, 1)]
    p.add_cores([(0, 5), (20, 0)])
    assert [p.vector_at(k) for k in p.cores] == [
        (5, 0), (5, 5), (5, 5), (0, 5), (0, 5), (20, 0)
    ]
    assert min_cost_hitting_vector(p) == min_cost_hitting_vector(
        HittingProblem(FIG1_LEVELS, [(5, 5), (20, 0)])
    )


def test_problem_keeps_incomparable_cores_in_order():
    p = HittingProblem(FIG1_LEVELS, [(5, 0), (0, 20)])
    assert [p.vector_at(k) for k in p.cores] == [(5, 0), (0, 20)]
    assert p.min_cost() == 0


def test_problem_core_steps():
    # only component 1 can rise above (20, 5): to level index 2, cost 20
    assert HittingProblem(FIG1_LEVELS, [(20, 5)]).core_steps == [((1, 2, 20, 2),)]


@pytest.mark.parametrize(
    "levels, pool, msg",
    [
        ([], [], "at least one function"),
        ([(0, 5), ()], [], "strictly ascending"),
        ([(0, 5, 5)], [], "strictly ascending"),
        ([(5, 0)], [], "strictly ascending"),
        (FIG1_LEVELS, [(0, 5, 20)], "length"),
        (FIG1_LEVELS, [(0, 7)], "not a level"),
        # the floor counts on integer costs: with a fractional level,
        # min_cost_hitting_vector raised RuntimeError from the lex-min pass
        ([(0, 0.5)], [(0,)], "ints"),
        ([(0, 1.5), (0, 2)], [(0, 0)], "ints"),
    ],
)
def test_problem_validation(levels, pool, msg):
    with pytest.raises(ValueError, match=msg):
        HittingProblem(levels, pool)


@pytest.mark.parametrize(
    "pool, expected",
    [
        ([], (0, 0)),
        ([(0, 0)], (0, 5)),
        ([(5, 5)], (0, 20)),
        ([(0, 20), (20, 0)], (5, 5)),
        ([(0, 0), (5, 5)], (0, 20)),
    ],
)
def test_min_cost_vector_pinned(pool, expected):
    assert min_cost_hitting_vector(HittingProblem(FIG1_LEVELS, pool)) == expected


def test_min_cost_vector_prune_boundary():
    p = HittingProblem(FIG1_LEVELS, [(5, 5)])
    # the optimum costs 20: pruning at 20 proves nothing cheaper exists
    assert min_cost_hitting_vector(p, prune_at=20) is None
    assert min_cost_hitting_vector(p, prune_at=21) == (0, 20)
    assert min_cost_hitting_vector(p, prune_at=math.inf) == (0, 20)


def test_min_cost_vector_saturated_pool():
    # nothing hits the pool: None, as from cost_bounded_hitting_vector
    p = HittingProblem(FIG1_LEVELS, [(20, 20)])
    assert min_cost_hitting_vector(p) is None
    assert min_cost_hitting_vector(p, prune_at=25) is None
    # a core at every maximum level among others: the search refutes the
    # pool at any budget, and the refuted try proves an infinite floor
    pool = [(5, 0), (20, 20), (0, 5)]
    p = HittingProblem(FIG1_LEVELS, pool)
    assert min_cost_hitting_vector(p) is None
    assert p.floor == math.inf
    assert min_cost_hitting_vector(p, prune_at=25) is None
    assert cost_bounded_hitting_vector(p, math.inf) is None
    assert cost_bounded_hitting_vector(p, 25) is None


def test_cost_bounded_vector():
    p = HittingProblem(FIG1_LEVELS, [(5, 5)])
    v = cost_bounded_hitting_vector(p, math.inf)
    assert v is not None and hits(v, [(5, 5)])
    assert cost_bounded_hitting_vector(p, 20) is None
    v = cost_bounded_hitting_vector(p, 21)
    assert v is not None and hits(v, [(5, 5)]) and sum(v) <= 20
    assert cost_bounded_hitting_vector(HittingProblem(FIG1_LEVELS, [(20, 20)]), math.inf) is None


def test_stop_callback_aborts_immediately():
    p = HittingProblem(FIG1_LEVELS, [(5, 5)])
    with pytest.raises(SearchAborted):
        min_cost_hitting_vector(p, should_stop=lambda: True)
    with pytest.raises(SearchAborted):
        cost_bounded_hitting_vector(p, math.inf, should_stop=lambda: True)


def _random_problem(rng: random.Random) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    m = rng.randint(1, 4)
    levels = []
    for _ in range(m):
        n = rng.randint(1, 4)
        levels.append(tuple(sorted(rng.sample(range(0, 30), n))))
    pool = []
    for _ in range(rng.randint(0, 5)):
        k = tuple(rng.choice(ls) for ls in levels)
        if any(c < ls[-1] for c, ls in zip(k, levels)):
            pool.append(k)
    return levels, pool


def test_matches_exhaustive_search_on_random_pools():
    """Branch and bound agrees with enumeration, vector for vector.

    Cost agreement is the load-bearing part; the vector comparison also
    pins the shared lexicographic tie-break.
    """
    rng = random.Random(20240817)
    for _ in range(300):
        levels, pool = _random_problem(rng)
        expected = exhaustive_mhv(levels, pool)
        got = min_cost_hitting_vector(HittingProblem(levels, pool))
        assert got == expected
        # bounded search is consistent with the proven optimum
        p = HittingProblem(levels, pool)
        assert min_cost_hitting_vector(p, prune_at=sum(expected)) is None
        bounded = cost_bounded_hitting_vector(p, sum(expected) + 1)
        assert bounded is not None and sum(bounded) <= sum(expected)
        assert hits(bounded, pool)


@st.composite
def _problem(draw):
    m = draw(st.integers(1, 3))
    levels = [
        tuple(sorted(draw(st.sets(st.integers(0, 12), min_size=1, max_size=3))))
        for _ in range(m)
    ]
    pool = draw(
        st.lists(
            st.tuples(*(st.sampled_from(ls) for ls in levels)),
            max_size=4,
        )
    )
    pool = [k for k in pool if any(c < ls[-1] for c, ls in zip(k, levels))]
    return levels, pool


@settings(max_examples=150, deadline=None)
@given(_problem())
def test_property_minimum_hits_pool(problem):
    levels, pool = problem
    v = min_cost_hitting_vector(HittingProblem(levels, pool))
    assert hits(v, pool)
    assert sum(v) == sum(exhaustive_mhv(levels, pool))
    assert all(c in ls for c, ls in zip(v, levels))


def test_lex_min_rejects_a_witness_that_misses_a_core():
    p = HittingProblem(FIG1_LEVELS, [(5, 5)])
    # (0, 0) costs 0 but does not hit (5, 5); no lower level can replace it
    with pytest.raises(RuntimeError, match="not a hitter"):
        _lex_min_at_cost(p, 0, None, (0, 0))


def _random_growing_pool(
    rng: random.Random, saturated_ok: bool
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Up to 6 functions and 12 cores, with duplicates and dominated cores."""
    m = rng.randint(1, 6)
    levels = [
        tuple(sorted(rng.sample(range(0, 10), rng.randint(1, 4)))) for _ in range(m)
    ]
    pool: list[tuple[int, ...]] = []
    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        if pool and roll < 0.2:
            k = rng.choice(pool)  # duplicate
        elif pool and roll < 0.45:
            # dominated by a pooled core: lower some components
            k = tuple(
                rng.choice([x for x in ls if x <= c])
                for c, ls in zip(rng.choice(pool), levels)
            )
        else:
            k = tuple(rng.choice(ls) for ls in levels)
        if saturated_ok or any(c < ls[-1] for c, ls in zip(k, levels)):
            pool.append(k)
    return levels, pool


def _encoded(levels, pool) -> tuple[tuple[int, ...], ...]:
    """Index-encoded cores of the pool, duplicates kept, in order."""
    return tuple(tuple(ls.index(c) for c, ls in zip(k, levels)) for k in pool)


def _reference_kept(levels, pool) -> tuple[tuple[int, ...], ...]:
    """Index-encoded cores a one-shot quadratic duplicate and dominance
    filter keeps."""
    raw = tuple(dict.fromkeys(_encoded(levels, pool)))
    return tuple(
        k
        for k in raw
        if not any(k2 != k and all(a <= b for a, b in zip(k, k2)) for k2 in raw)
    )


def test_add_cores_matches_fresh_build():
    rng = random.Random(20261018)
    for _ in range(400):
        levels, pool = _random_growing_pool(rng, saturated_ok=True)
        whole = HittingProblem(levels, pool)
        assert whole.cores == list(_encoded(levels, pool))
        for i, masks in enumerate(whole.below):
            for t, mask in enumerate(masks):
                assert mask == sum(1 << ci for ci, k in enumerate(whole.cores) if k[i] < t)
        # duplicate and dominated cores are redundant: dropping them
        # changes no answer
        filtered = HittingProblem(
            levels,
            [tuple(ls[t] for ls, t in zip(levels, k)) for k in _reference_kept(levels, pool)],
        )
        best = min_cost_hitting_vector(whole)
        assert best == min_cost_hitting_vector(filtered)
        ubs = [math.inf] if best is None else [sum(best), sum(best) + 1, math.inf]
        for ub in ubs:
            raw_hit = cost_bounded_hitting_vector(whole, ub)
            kept_hit = cost_bounded_hitting_vector(filtered, ub)
            assert (raw_hit is None) == (kept_hit is None)
            if raw_hit is not None:
                assert hits(raw_hit, pool) and hits(kept_hit, pool)
        cut = rng.randint(0, len(pool))
        from_prefix = HittingProblem(levels, pool[:cut])
        from_prefix.add_cores(pool[cut:])
        one_by_one = HittingProblem(levels)
        for k in pool:
            one_by_one.add_cores([k])
        for grown in (from_prefix, one_by_one):
            assert grown.cores == whole.cores
            assert grown.core_steps == whole.core_steps
            assert grown.core_untouched == whole.core_untouched
            assert grown.below == whole.below


def test_add_cores_validates_before_inserting():
    p = HittingProblem(FIG1_LEVELS, [(5, 0)])
    with pytest.raises(ValueError, match="not a level"):
        p.add_cores([(0, 20), (0, 7)])
    assert [p.vector_at(k) for k in p.cores] == [(5, 0)]


def _optimal_hitters(levels, pool, cost) -> list[tuple[int, ...]]:
    """Level-index tuples of every hitter of the given cost, ascending."""
    out = []
    for idx in itertools.product(*(range(len(ls)) for ls in levels)):
        v = tuple(ls[i] for ls, i in zip(levels, idx))
        if sum(v) == cost and hits(v, pool):
            out.append(idx)
    return out


def test_floor_never_changes_an_answer():
    """Grow problems core by core; after each core the floored search must
    agree with enumeration, vector for vector, with and without prune_at."""
    rng = random.Random(1018)
    witness_replaced = 0
    for _ in range(120):
        levels, pool = _random_growing_pool(rng, saturated_ok=False)
        p = HittingProblem(levels)
        pruned = HittingProblem(levels)
        for n, core in enumerate(pool, 1):
            p.add_cores([core])
            pruned.add_cores([core])
            expected = exhaustive_mhv(levels, pool[:n])
            best = sum(expected)
            assert p.floor <= best
            first = _branch_and_bound(p, best + 1, None)[0]
            assert first is not None and sum(p.vector_at(first)) == best
            if p.vector_at(first) != expected:
                witness_replaced += 1
            assert min_cost_hitting_vector(p) == expected
            assert p.floor == best
            assert min_cost_hitting_vector(pruned, prune_at=best) is None
            assert min_cost_hitting_vector(pruned, prune_at=best + 1) == expected
            # any optimal witness leads the lex-min pass to the same vector
            latest = _optimal_hitters(levels, pool[:n], best)[-1]
            assert p.vector_at(_lex_min_at_cost(p, best, None, latest)) == expected
    # the search's first optimal hitter is often not the lex-min one, so
    # the witness-guided pass really does replace witnesses
    assert witness_replaced > 30


def test_lex_min_pass_is_independent_of_its_witness():
    """Started from any optimal hitter, the lex-min pass returns the
    lex-min one: the property that lets the optimal searches try raises in
    any order without moving a trace. Pools with small level values, so
    that optimal hitters tie, grow core by core; after each core the pass
    runs once from every optimal hitter, enumerated, on a fresh problem,
    which holds no nogoods, and again, in shuffled order, on one problem
    shared by all the runs of a pool, whose nogoods carry over from run to
    run and from core to core."""
    rng = random.Random(2903)
    runs = ties = nogoods = 0
    for _ in range(300):
        m = rng.randint(2, 6)
        levels = [tuple(sorted(rng.sample(range(0, 4), rng.randint(2, 3)))) for _ in range(m)]
        shared = HittingProblem(levels)
        pool = []
        for _ in range(rng.randint(1, 10)):
            low = rng.randrange(m)  # keep the core below the top somewhere
            pool.append(tuple(
                rng.choice(ls[:-1]) if i == low else rng.choice(ls)
                for i, ls in enumerate(levels)
            ))
            shared.add_cores(pool[-1:])
            expected = exhaustive_mhv(levels, pool)
            best = sum(expected)
            witnesses = _optimal_hitters(levels, pool, best)
            ties += len(witnesses) > 1
            for w in witnesses:
                fresh = HittingProblem(levels, pool)
                assert fresh.vector_at(_lex_min_at_cost(fresh, best, None, w)) == expected
            for w in rng.sample(witnesses, len(witnesses)):
                assert shared.vector_at(_lex_min_at_cost(shared, best, None, w)) == expected
                runs += 1
        nogoods += sum(map(len, shared.nogoods))
    assert runs > 2000 and ties > 400 and nogoods > 500


def _reference_first_hitter(levels, cores, ub) -> tuple[int, ...] | None:
    """First hitter costing less than ub in the search's visiting order.

    A plain recursive DFS over level indices with the search's pick (the
    unhit core with the fewest raise options under the caps, the first in
    kept order), its child order (cheapest increment, then component) and
    its sibling caps, but no packing bound: it only stops descending below
    a vector that already costs ub or more.
    """
    m = len(levels)
    v = [0] * m
    caps = [len(ls) - 1 for ls in levels]

    def dfs() -> tuple[int, ...] | None:
        if sum(ls[t] for ls, t in zip(levels, v)) >= ub:
            return None
        unhit = [k for k in cores if all(v[i] <= k[i] for i in range(m))]
        if not unhit:
            return tuple(v)
        options = [[i for i in range(m) if k[i] < caps[i]] for k in unhit]
        if not all(options):
            return None
        k, raisable = min(zip(unhit, options), key=lambda ko: len(ko[1]))
        saved = caps[:]
        found = None
        for _, i in sorted((levels[i][k[i] + 1] - levels[i][v[i]], i) for i in raisable):
            old, v[i] = v[i], k[i] + 1
            found = dfs()
            v[i] = old
            if found is not None:
                break
            caps[i] = k[i]
        caps[:] = saved
        return found

    return dfs()


def test_bounded_search_returns_the_reference_first_hitter():
    """The packing bounds only cut subtrees that hold no hitter below the
    budget, so the bounded search returns exactly the first hitter of a
    DFS that has no packing bound, pool by pool as the pool grows."""
    rng = random.Random(8080)
    hitters = 0
    for _ in range(150):
        levels, pool = _random_growing_pool(rng, saturated_ok=False)
        p = HittingProblem(levels)
        for n, core in enumerate(pool, 1):
            p.add_cores([core])
            best = sum(exhaustive_mhv(levels, pool[:n]))
            for ub in (best, best + 1, math.inf):
                expected = _reference_first_hitter(levels, p.cores, ub)
                got = cost_bounded_hitting_vector(p, ub)
                if expected is None:
                    assert got is None
                else:
                    assert got == p.vector_at(expected)
                    hitters += 1
    assert hitters > 1200


def test_refuted_search_proves_a_bound_above_its_budget():
    """A search refuted at budget c (no hitter costing c or less) reports
    a least pruned cost plus bound t with c < t <= the optimum, and the
    search at the optimum finds an optimal hitter."""
    rng = random.Random(6061)
    refuted = 0
    for _ in range(150):
        levels, pool = _random_growing_pool(rng, saturated_ok=False)
        p = HittingProblem(levels, pool)
        best = sum(exhaustive_mhv(levels, pool))
        for c in range(p.min_cost(), best):
            found, t = _branch_and_bound(p, c + 1, None)
            assert found is None
            assert c < t <= best
            refuted += 1
        found, _ = _branch_and_bound(p, best + 1, None)
        assert found is not None and sum(p.vector_at(found)) == best
    assert refuted > 500


def test_prefix_search_finds_the_cheapest_extension():
    """Under a prefix, a budget equal to the cost of the cheapest hitter
    that starts with the prefix finds nothing, and one more finds a hitter
    of exactly that cost which starts with the prefix: the check that the
    lex-min pass makes at each level. With no such hitter, even an
    unbounded budget finds nothing. Checked by enumeration."""
    rng = random.Random(5150)
    found = missing = 0
    for _ in range(300):
        levels, pool = _random_growing_pool(rng, saturated_ok=False)
        p = HittingProblem(levels, pool)
        prefix = tuple(rng.randrange(len(ls)) for ls in levels[: rng.randint(0, p.m)])
        extensions = [
            sum(ls[i] for ls, i in zip(levels, idx))
            for idx in itertools.product(*(range(len(ls)) for ls in levels))
            if idx[: len(prefix)] == prefix and hits(p.vector_at(idx), pool)
        ]
        if not extensions:
            assert _branch_and_bound(p, math.inf, None, prefix)[0] is None
            missing += 1
            continue
        cheapest = min(extensions)
        assert _branch_and_bound(p, cheapest, None, prefix)[0] is None
        idx = _branch_and_bound(p, cheapest + 1, None, prefix)[0]
        assert idx is not None and idx[: len(prefix)] == prefix and len(idx) == p.m
        assert hits(p.vector_at(idx), pool)
        assert sum(p.vector_at(idx)) == cheapest
        found += 1
    assert found > 100 and missing > 30


def _suffix_hits_below(levels, cores, pos, unhit, budget) -> bool:
    """Whether some levels of components pos+1.. hit every core whose bit
    is set in `unhit` at a suffix cost below `budget`, by enumeration."""
    suffix = levels[pos + 1 :]
    wanted = [k[pos + 1 :] for ci, k in enumerate(cores) if unhit >> ci & 1]
    return any(
        sum(ls[t] for ls, t in zip(suffix, idx)) < budget
        and all(any(t > c for t, c in zip(idx, k)) for k in wanted)
        for idx in itertools.product(*(range(len(ls)) for ls in suffix))
    )


def test_every_nogood_holds_by_enumeration(monkeypatch):
    """Grow problems core by core and solve after each core; every stored
    nogood (pos, u, b) must be true of the pool at that point, checked by
    enumeration: no levels of components pos+1.. hit every core in u at a
    suffix cost below b. Since cores are only appended, a nogood recorded
    at an earlier step is checked again against every later pool. The
    same pools solved on fresh problems, which hold no nogoods, run more
    lex-min checks as searches: the nogoods do answer some."""
    searches = {True: 0, False: 0}  # lex-min checks searched, by persistence
    search = hitting._branch_and_bound
    persistent = True

    def counted(p, bound, should_stop, prefix=(), **kw):
        searches[persistent] += bool(prefix)
        return search(p, bound, should_stop, prefix, **kw)

    monkeypatch.setattr(hitting, "_branch_and_bound", counted)
    rng = random.Random(2611)
    nogoods = 0
    for _ in range(150):
        levels, pool = _random_growing_pool(rng, saturated_ok=False)
        p = HittingProblem(levels)
        for n, core in enumerate(pool, 1):
            p.add_cores([core])
            persistent = True
            min_cost_hitting_vector(p)
            persistent = False
            min_cost_hitting_vector(HittingProblem(levels, pool[:n]))
            for pos, stored in enumerate(p.nogoods):
                for u, b in stored:
                    assert not _suffix_hits_below(levels, p.cores, pos, u, b)
        nogoods += sum(map(len, p.nogoods))
    assert nogoods > 200
    assert searches[True] < searches[False]


def test_nogoods_keep_the_hitter_and_save_nodes(monkeypatch):
    """A problem grown core by core, which keeps its nogoods, returns the
    same lex-min hitter at every step as a fresh problem built from the
    same pool, which has none, and enters no more search nodes. The fresh
    problem starts from the grown one's floor, so both run the same
    min-cost tries and the node counts differ only in the lex-min pass."""
    entered = 0

    def counting(should_stop):
        def poll():
            nonlocal entered
            entered += 1

        return poll

    monkeypatch.setattr(hitting, "_make_stop_poll", counting)
    rng = random.Random(2612)
    saved = steps = 0
    for _ in range(200):
        levels, pool = _random_growing_pool(rng, saturated_ok=False)
        p = HittingProblem(levels)
        for n, core in enumerate(pool, 1):
            p.add_cores([core])
            fresh = HittingProblem(levels, pool[:n])
            fresh.floor = p.floor
            entered = 0
            kept = min_cost_hitting_vector(p)
            kept_nodes = entered
            entered = 0
            assert min_cost_hitting_vector(fresh) == kept
            assert kept_nodes <= entered
            saved += entered - kept_nodes
            steps += 1
    assert steps > 500 and saved > 0


def _reference_branch_and_bound(levels, cores, bound, prefix=(), most_hits=False):
    """The search of _branch_and_bound written plainly: every node
    recomputes each unhit core's raise options, its cheapest raise and
    both packings from scratch, and the search stops at its first hitter.
    Children go cheapest increment first, then, with most_hits, the raise
    that hits the most of the node's unhit cores, then lowest component.
    Returns (found, least, nodes entered)."""
    m = len(levels)
    v = [*prefix, *[0] * (m - len(prefix))]
    caps = [*prefix, *(len(ls) - 1 for ls in levels[len(prefix):])]
    found, least, nodes = None, math.inf, 0

    def packing(entries) -> int:
        owed = packed = 0
        for neg, _, _, mask in entries:
            if not mask & packed:
                owed -= neg
                packed |= mask
        return owed

    def search(cost: int) -> bool:
        nonlocal found, least, nodes
        nodes += 1
        if cost >= bound:
            least = min(least, cost)
            return False
        entries = []
        for ci, k in enumerate(cores):
            if any(v[i] > k[i] for i in range(m)):
                continue  # hit
            options = [i for i in range(m) if k[i] + 1 <= caps[i]]
            if not options:
                return False
            cheapest = min(levels[i][k[i] + 1] - levels[i][v[i]] for i in options)
            entries.append((-cheapest, len(options), ci, sum(1 << i for i in options)))
        if not entries:
            found = tuple(v)
            return True
        owed = packing(entries)
        if cost + owed < bound:
            owed = max(owed, packing(sorted(entries)))
        if cost + owed >= bound:
            least = min(least, cost + owed)
            return False
        k = cores[min(entries, key=lambda e: e[1])[2]]
        saved = caps[:]
        unhit = [cores[ci] for _, _, ci, _ in entries]
        raises = sorted(
            (
                levels[i][k[i] + 1] - levels[i][v[i]],
                -sum(u[i] <= k[i] for u in unhit) if most_hits else 0,
                i,
            )
            for i in range(m)
            if k[i] + 1 <= caps[i]
        )
        for d, _, i in raises:
            old, v[i] = v[i], k[i] + 1
            if search(cost + d):
                return True
            v[i] = old
            caps[i] = k[i]
        caps[:] = saved
        return False

    search(sum(ls[t] for ls, t in zip(levels, v)))
    return found, least, nodes


def test_search_matches_a_from_scratch_reference(monkeypatch):
    """Node by node, the search that builds each node's entries from its
    parent's returns what the from-scratch reference returns and enters as
    many nodes: pools grown core by core, with 3 to 5 levels per function
    so that sibling caps leave some options, searched with no prefix and
    with random prefixes, at budgets from the previous optimum + 1 up to
    unbounded, and refuted at budgets up to the optimum, in both child
    orders. A stale mask or cheapest raise after a recount, a missed dead
    core or a missed cheaper raise each fail it, and so does a hit count
    read from the parent's unhit cores or ranked above the increment."""
    entered = 0

    def counting(should_stop):
        def poll():
            nonlocal entered
            entered += 1

        return poll

    monkeypatch.setattr(hitting, "_make_stop_poll", counting)
    rng = random.Random(1313)
    searches = found = 0
    for _ in range(60):
        m = rng.randint(2, 9)
        levels = [
            tuple(sorted(rng.sample(range(0, 12), rng.randint(3, 5)))) for _ in range(m)
        ]
        p = HittingProblem(levels)
        for _ in range(rng.randint(1, 24)):
            # like grown cores, many components sit at their top level
            low = rng.randrange(m)
            p.add_cores([tuple(
                rng.choice(ls[:-1]) if i == low or rng.random() < 0.5 else ls[-1]
                for i, ls in enumerate(levels)
            )])
            floor = p.floor  # the previous optimum, at or below the new one
            best = sum(min_cost_hitting_vector(p))
            some = tuple(rng.randrange(len(ls)) for ls in levels[: rng.randint(1, m)])
            for prefix in ((), some):
                for bound, most_hits in itertools.product(
                    (math.inf, floor + 1, best + 1, best, best + rng.randint(1, 6)),
                    (False, True),
                ):
                    entered = 0
                    got = _branch_and_bound(p, bound, None, prefix, most_hits=most_hits)
                    args = levels, p.cores, bound, prefix, most_hits
                    assert (*got, entered) == _reference_branch_and_bound(*args), args
                    searches += 1
                    found += got[0] is not None
    assert searches > 10000 and found > 5000


def _frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    """990 cores, each raisable only on its own component, force one raise
    per component: the search tree is 990 levels deep. Building the
    problem costs O(m * levels) per core, so the build takes a fraction of
    a second; a pairwise dominance scan over the pool took half a minute."""
    m = 990
    levels = [(0, 1)] * m
    pool = [tuple(0 if j == i else 1 for j in range(m)) for i in range(m)]
    start = time.process_time()
    p = HittingProblem(levels, pool)
    assert time.process_time() - start < 10
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        assert min_cost_hitting_vector(p) == (1,) * m
        assert cost_bounded_hitting_vector(p, m) is None
    finally:
        sys.setrecursionlimit(limit)
