import pytest

from hswcsp import (
    SplitMix64,
    Wcsp,
    generate,
    optimal_cost,
    wcsp_to_text,
)
from oracles import (
    classify_all_vectors,
    exhaustive_mhv,
    feasible_cost_profiles,
    leq,
    maximal_cores,
    vector_is_solution,
)

FIG1_LEVELS = [(0, 5, 20), (0, 5, 20)]


def test_fig1_optimum(fig1):
    assert optimal_cost(fig1) == 20


def test_fig1_classification(fig1):
    cls = classify_all_vectors(fig1)
    assert sorted(cls.cores) == [(0, 0), (0, 5), (5, 0), (5, 5)]
    assert len(cls.solutions) == 5
    assert maximal_cores(fig1) == [(5, 5)]
    best = min(sum(v) for v in cls.solutions)
    assert best == 20
    assert {v for v in cls.solutions if sum(v) == best} == {(0, 20), (20, 0)}


def test_maximal_cores_matches_its_definition(corpus):
    for w, _ in corpus[4:12]:
        cores = classify_all_vectors(w).cores
        assert maximal_cores(w) == [
            k for k in cores if not any(k2 != k and leq(k, k2) for k2 in cores)
        ]


def test_fig1_profiles(fig1):
    assert sorted(feasible_cost_profiles(fig1)) == [(0, 20), (20, 0)]


def test_vector_is_solution_matches_classification(fig1):
    cls = classify_all_vectors(fig1)
    for v in cls.cores:
        assert not vector_is_solution(fig1, v)
    for v in cls.solutions:
        assert vector_is_solution(fig1, v)


def test_infeasible_instance(infeasible):
    assert optimal_cost(infeasible) is None
    assert feasible_cost_profiles(infeasible) == []
    cls = classify_all_vectors(infeasible)
    assert cls.solutions == [] and len(cls.cores) == 2


def test_exhaustive_mhv_pinned():
    assert exhaustive_mhv(FIG1_LEVELS, []) == (0, 0)
    assert exhaustive_mhv(FIG1_LEVELS, [(5, 5)]) == (0, 20)
    assert exhaustive_mhv(FIG1_LEVELS, [(0, 0)]) == (0, 5)
    assert exhaustive_mhv(FIG1_LEVELS, [(0, 20), (20, 0)]) == (5, 5)


def test_exhaustive_mhv_errors():
    # a core at every maximum level: nothing hits the pool
    assert exhaustive_mhv(FIG1_LEVELS, [(20, 20)]) is None
    with pytest.raises(ValueError, match="not a level"):
        exhaustive_mhv(FIG1_LEVELS, [(0, 7)])
    with pytest.raises(ValueError, match="wrong length"):
        exhaustive_mhv(FIG1_LEVELS, [(0,)])
    with pytest.raises(ValueError, match="brute-force limit"):
        exhaustive_mhv([(0, 1)] * 21, [])


def test_assignment_guard():
    w = Wcsp.build(
        24, [2] * 24, [((0, 1), {t: 1 for t in [(0, 0), (0, 1), (1, 0), (1, 1)]})],
        top=5,
    )
    with pytest.raises(ValueError, match="brute-force limit"):
        optimal_cost(w)


# --- generator ---


def test_splitmix64_reference_stream():
    """First outputs for seed 0, against the published reference vector."""
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix64_below_and_chance():
    r = SplitMix64(0)
    assert r.below(10) == 0xE220A8397B1DCDAF % 10
    r = SplitMix64(0)
    assert not r.chance(0.0)
    r = SplitMix64(0)
    assert r.chance(1.0)


def test_generate_deterministic():
    a = generate(seed=3, num_vars=4, max_dom=3, num_funcs=5, cost_range=8)
    b = generate(seed=3, num_vars=4, max_dom=3, num_funcs=5, cost_range=8)
    assert wcsp_to_text(a) == wcsp_to_text(b)
    c = generate(seed=4, num_vars=4, max_dom=3, num_funcs=5, cost_range=8)
    assert wcsp_to_text(a) != wcsp_to_text(c)


def test_generate_shape():
    w = generate(seed=0, num_vars=5, max_dom=3, num_funcs=4, cost_range=6)
    assert w.num_vars == 5
    assert w.domains == (3,) * 5
    assert w.m == 4
    assert w.top == 7
    assert w.name == "gen0"
    for f in w.cost_functions:
        assert len(f.scope) == 2
        assert all(0 <= c <= 6 for c in f.table.values())


def test_generate_arity_clamped_to_num_vars():
    w = generate(seed=0, num_vars=1, max_dom=2, num_funcs=2, max_arity=3)
    assert all(f.scope == (0,) for f in w.cost_functions)


def test_generate_hard_density():
    w = generate(
        seed=5, num_vars=4, max_dom=2, num_funcs=6, cost_range=5, hard_density=0.5
    )
    assert len(w.hard_constraints) >= 1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_vars=0, max_dom=2, num_funcs=1),
        dict(num_vars=1, max_dom=0, num_funcs=1),
        dict(num_vars=1, max_dom=2, num_funcs=0),
        dict(num_vars=1, max_dom=2, num_funcs=1, max_arity=0),
        dict(num_vars=1, max_dom=2, num_funcs=1, cost_range=-1),
        dict(num_vars=1, max_dom=2, num_funcs=1, hard_density=1.5),
    ],
)
def test_generate_validation(kwargs):
    with pytest.raises(ValueError):
        generate(seed=0, **kwargs)
