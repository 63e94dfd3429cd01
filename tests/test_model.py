import pytest
from hypothesis import given
from hypothesis import strategies as st

from hswcsp import Wcsp, generate, parse_wcsp
from hswcsp.model import CostFunction, Evaluation, HardConstraint
from oracles import hits, leq


def test_fig1_shape(fig1):
    assert fig1.num_vars == 3
    assert fig1.domains == (2, 2, 2)
    assert fig1.m == 2
    assert fig1.top == 100
    assert fig1.levels_per_function() == ((0, 5, 20), (0, 5, 20))
    assert fig1.min_vector() == (0, 0)
    assert fig1.max_vector() == (20, 20)
    assert fig1.hard_constraints == ()


def test_fig1_evaluate(fig1):
    ev = fig1.evaluate((0, 1, 1))
    assert ev == (20, (20, 0), True)
    assert fig1.evaluate((0, 0, 0)) == (20, (0, 20), True)
    assert fig1.evaluate((1, 0, 0)).total == 25


def test_evaluate_flags_top_and_hards():
    w = Wcsp.build(
        2,
        [2, 2],
        [((0, 1), {(0, 0): 0, (0, 1): 3, (1, 0): 99, (1, 1): 1})],
        hard=[((0,), [(0,)])],
        top=50,
        name="t",
    )
    # (1,0) costs 99 >= top: clamped, and the table entry alone forbids it
    assert w.cost_functions[0].table[(1, 0)] == 50
    assert len(w.hard_constraints) == 1
    assert not w.evaluate((1, 0)).feasible  # at top
    assert not w.evaluate((0, 1)).feasible  # forbidden x0=0
    assert w.evaluate((1, 1)) == (1, (1,), True)


def test_build_drops_pure_hard_blocks():
    # all sub-top costs zero plus a tuple at top: becomes a hard constraint
    w = Wcsp.build(
        2,
        [2, 2],
        [
            ((0,), {(0,): 0, (1,): 10}),
            ((1,), {(0,): 1, (1,): 2}),
        ],
        top=10,
        name="t",
    )
    assert w.m == 1
    assert w.cost_functions[0].scope == (1,)
    assert len(w.hard_constraints) == 1
    assert w.hard_constraints[0].forbidden == frozenset({(1,)})


def test_levels_are_sorted_distinct_sub_top():
    w = Wcsp.build(
        1, [3], [((0,), {(0,): 7, (1,): 0, (2,): 7})], top=100, name="t"
    )
    assert w.cost_functions[0].levels == (0, 7)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(num_vars=0, domains=[], functions=[]), "at least one variable"),
        (dict(num_vars=1, domains=[0], functions=[]), "at least one value"),
        (dict(num_vars=1, domains=[2], functions=[]), "at least one cost function"),
        (
            dict(num_vars=2, domains=[2, 2], functions=[((0, 0), {(0, 0): 1})]),
            "repeated variable",
        ),
        (
            dict(num_vars=1, domains=[2], functions=[((0,), {(0,): 1})]),
            "not dense",
        ),
        (
            dict(num_vars=1, domains=[2], functions=[((0,), {(0,): -1, (1,): 0})]),
            "negative",
        ),
        (dict(num_vars=1, domains=[2], functions=[((), {(): 1})]), "empty scope"),
        (
            dict(num_vars=1, domains=[2], functions=[((1,), {(0,): 1, (1,): 2})]),
            "out of range",
        ),
        (dict(num_vars=2, domains=[2], functions=[]), "domain list length"),
        (
            dict(num_vars=1, domains=[2], functions=[((0,), {(0,): 1, (1,): 2})], top=0),
            "top must be a positive integer",
        ),
        (
            dict(num_vars=1, domains=[2], functions=[((0,), {(0,): 0, (1,): 2**63})],
                 top=2**64),
            "exceeds the 64-bit budget",
        ),
        (
            dict(num_vars=1, domains=[2], top=2**64, functions=[
                ((0,), {(0,): 0, (1,): 2**62}), ((0,), {(0,): 2**62, (1,): 0}),
            ]),
            "sum of maximum levels",
        ),
        (
            dict(num_vars=1, domains=[2], functions=[((0,), {(0,): 1, (1, 1): 2})]),
            "does not match scope arity",
        ),
        (
            dict(num_vars=1, domains=[2], functions=[((0,), {(0,): 1, (2,): 2})]),
            "out of domain",
        ),
    ],
)
def test_build_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        Wcsp.build(
            kwargs["num_vars"], kwargs["domains"], kwargs["functions"],
            top=kwargs.get("top", 10),
        )


def test_constructor_rejects_inconsistent_levels():
    f = CostFunction((0,), {(0,): 1, (1,): 2}, levels=(1, 3))
    with pytest.raises(ValueError, match="levels"):
        Wcsp(1, (2,), (), (f,), top=10)


def test_constructor_rejects_cost_above_top():
    # Wcsp.build clamps to top; a table above it would evaluate differently
    # once written and read back
    f = CostFunction((0,), {(0,): 1, (1,): 7}, (1,))
    with pytest.raises(ValueError, match="above-top cost 7"):
        Wcsp(1, (2,), (), (f,), 5)


def test_hard_constraint_forbids():
    hc = HardConstraint((1,), frozenset({(0,)}))
    assert hc.key((5, 0)) in hc.forbidden
    assert hc.key((5, 1)) not in hc.forbidden


def test_constructor_rejects_a_table_that_only_forbids():
    # Wcsp.build makes such a table a hard constraint, and so would reading
    # its text back
    f = CostFunction((0,), {(0,): 0, (1,): 5}, (0,))
    g = CostFunction((0,), {(0,): 1, (1,): 2}, (1, 2))
    with pytest.raises(ValueError, match="only forbids"):
        Wcsp(1, (2,), (), (f, g), 5)


def test_constructor_rejects_a_hard_constraint_that_forbids_nothing():
    # its text block would read back as an all-zero cost function
    f = CostFunction((0,), {(0,): 1, (1,): 2}, (1, 2))
    with pytest.raises(ValueError, match="forbids nothing"):
        Wcsp(1, (2,), (HardConstraint((0,), frozenset()),), (f,), 5)


@pytest.mark.parametrize("name", ["a b", "#x", "", " a", "a\n"])
def test_constructor_rejects_a_name_that_is_not_one_token(name):
    # the text format reads the name as the first token of the first line
    # that is not a comment
    f = CostFunction((0,), {(0,): 1, (1,): 2}, (1, 2))
    with pytest.raises(ValueError, match="one token"):
        Wcsp(1, (2,), (), (f,), 5, name)


def test_build_drops_hard_constraints_that_forbid_nothing():
    w = Wcsp.build(
        2, [2, 2], [((0,), {(0,): 1, (1,): 2})],
        hard=[((0,), []), ((0, 1), [(1, 1)]), ((1,), ())], top=10,
    )
    assert w.hard_constraints == (HardConstraint((0, 1), frozenset({(1, 1)})),)


def test_build_gives_a_plain_csp_the_zero_function():
    # every table only forbids: each becomes a hard constraint, and the one
    # cost function is the all-zero unary function over variable 0
    w = Wcsp.build(
        2, [3, 2],
        [((1,), {(0,): 10, (1,): 0}), ((0, 1), {(0, 0): 0, (0, 1): 0,
                                               (1, 0): 12, (1, 1): 0,
                                               (2, 0): 0, (2, 1): 10})],
        top=10,
    )
    assert w.hard_constraints == (
        HardConstraint((1,), frozenset({(0,)})),
        HardConstraint((0, 1), frozenset({(1, 0), (2, 1)})),
    )
    assert w.cost_functions == (
        CostFunction((0,), {(0,): 0, (1,): 0, (2,): 0}, (0,)),
    )


def test_evaluate_agrees_with_a_per_variable_reference(corpus, random_built):
    """key and evaluate read a scope's values through a cached
    itemgetter key; the reference reads them one variable at a time. On a
    unary scope itemgetter(x) returns the bare value, not a tuple, so the
    instances include unary functions and hard constraints, tables at top,
    and the all-zero unary function that a CSP-only file gets."""
    instances = [w for w, _ in corpus[:40]]
    instances += [
        generate(seed=s, num_vars=4, max_dom=3, num_funcs=4, max_arity=arity,
                 cost_range=3, hard_density=0.5)
        for s in range(10)
        for arity in (1, 2, 3)
    ]
    instances += random_built
    instances.append(parse_wcsp("p 2 2 1 10\n2 2\n2 0 1 0 1\n0 0 10\n"))
    scopes = [c.scope for w in instances for c in w.cost_functions + w.hard_constraints]
    assert any(len(s) == 1 for s in scopes) and any(len(s) == 3 for s in scopes)
    assert any(
        not w.evaluate(a).feasible for w in instances for a in w.assignments()
    )
    for w in instances:
        for a in w.assignments():
            per = []
            for f in w.cost_functions:
                key = tuple(a[x] for x in f.scope)
                assert f.key(a) == f.key(list(a)) == key
                per.append(f.table[key])
            forbidden = False
            for hc in w.hard_constraints:
                key = tuple(a[x] for x in hc.scope)
                assert hc.key(a) == hc.key(list(a)) == key
                forbidden = forbidden or key in hc.forbidden
            feasible = all(c < w.top for c in per) and not forbidden
            assert w.evaluate(a) == Evaluation(sum(per), tuple(per), feasible)


def test_level_table_inverts_levels(fig1, corpus):
    for w in [fig1] + [w for w, _ in corpus]:
        for f in w.cost_functions:
            assert len(f.index) == len(f.levels)
            assert all(f.levels[f.index[c]] == c for c in f.levels)


def test_level_indices(fig1):
    assert fig1.level_indices([5, 20]) == [1, 2]
    with pytest.raises(ValueError, match="not a level"):
        fig1.level_indices((5, 7))
    with pytest.raises(ValueError, match="length"):
        fig1.level_indices((5,))


def test_validate_assignment(fig1):
    with pytest.raises(ValueError, match="out of domain"):
        fig1.validate_assignment((0, 0, 2))
    with pytest.raises(ValueError, match="length"):
        fig1.validate_assignment((0, 0))


def test_leq_and_hits_pinned():
    assert leq((0, 0), (5, 5))
    assert not leq((0, 20), (5, 5))
    pool = [(5, 5)]
    assert not hits((0, 0), pool)
    assert not hits((5, 5), pool)
    assert hits((0, 20), pool)
    assert hits((20, 0), pool)
    assert hits((0, 0), [])


def test_leq_length_mismatch():
    with pytest.raises(ValueError):
        leq((1,), (1, 2))


vecs = st.lists(st.integers(0, 30), min_size=1, max_size=5)


@given(vecs, vecs.flatmap(lambda v: st.tuples(st.just(v), st.lists(
    st.lists(st.integers(0, 30), min_size=len(v), max_size=len(v)), max_size=4))))
def test_hits_is_pointwise(u, v_pool):
    """hits holds exactly when no pooled core dominates the vector."""
    v, pool = v_pool
    if len(u) != len(v):
        u = (u + v)[: len(v)]
    assert hits(u, pool) == all(not leq(u, k) for k in pool)
    # a vector never hits a pool containing itself
    assert not hits(u, pool + [list(u)])


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=5))
def test_leq_partial_order(pairs):
    u = [a for a, _ in pairs]
    v = [b for _, b in pairs]
    assert leq(u, u) and leq(v, v)
    if leq(u, v) and leq(v, u):
        assert u == v


@pytest.mark.parametrize(
    "table, forbidden",
    [
        ({(0,): 0, (1,): 10}, {(1,)}),
        ({(0,): 12, (1,): 10}, {(0,), (1,)}),
        ({(0,): 0, (1,): 0}, None),
        ({(0,): 3, (1,): 10}, None),
        ({(0,): 3, (1,): 0}, None),
    ],
)
def test_build_splits_pure_hard_tables(table, forbidden):
    """A table that forbids something and costs 0 below top becomes a hard
    constraint; any other table stays a cost function, clamped at top."""
    other = ((0,), {(0,): 1, (1,): 0})
    w = Wcsp.build(1, [2], [((0,), table), other], top=10)
    if forbidden is None:
        assert w.hard_constraints == ()
        clamped = {t: min(c, 10) for t, c in table.items()}
        assert [f.table for f in w.cost_functions] == [clamped, other[1]]
    else:
        assert w.hard_constraints == (HardConstraint((0,), frozenset(forbidden)),)
        assert [f.table for f in w.cost_functions] == [other[1]]
