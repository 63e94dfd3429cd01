import itertools
import pathlib
import random

import pytest

from hswcsp import Wcsp, generate, optimal_cost, parse_wcsp_file

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fig1() -> Wcsp:
    return parse_wcsp_file(str(FIXTURES / "fig1.wcsp"))


@pytest.fixture(scope="session")
def fig1_path() -> str:
    return str(FIXTURES / "fig1.wcsp")


@pytest.fixture(scope="session")
def corpus() -> list[tuple[Wcsp, int]]:
    """200 small instances with brute-force optima, shared across tests.

    Sized so exhaustive search stays instant: 2..4 variables, domains 2..3,
    1..4 functions, costs 0..30, no hard constraints (so never infeasible).
    """
    out = []
    for seed in range(200):
        w = generate(
            seed=seed,
            num_vars=2 + seed % 3,
            max_dom=2 + seed % 2,
            num_funcs=1 + seed % 4,
            cost_range=30,
        )
        ws = optimal_cost(w)
        assert ws is not None
        out.append((w, ws))
    return out


@pytest.fixture(scope="session")
def top_corpus() -> list[Wcsp]:
    """40 small generated instances rebuilt through Wcsp.build with about a
    third of their table entries raised to top or one above it. generate
    keeps every cost below top, so these are the instances where a table
    entry at top is what forbids a tuple. The last function is kept as
    generated, so every instance keeps a cost function; some blocks become
    pure hard constraints and some instances are infeasible."""
    rng = random.Random(16)
    out = []
    for seed in range(40):
        g = generate(
            seed=seed,
            num_vars=2 + seed % 3,
            max_dom=2 + seed % 2,
            num_funcs=2 + seed % 3,
            cost_range=6,
            hard_density=0.3 if seed % 2 else 0.0,
        )
        functions = [
            (f.scope, {
                t: g.top + rng.randrange(2) if rng.random() < 0.35 else c
                for t, c in f.table.items()
            })
            for f in g.cost_functions[:-1]
        ]
        functions.append((g.cost_functions[-1].scope, g.cost_functions[-1].table))
        hard = [(hc.scope, hc.forbidden) for hc in g.hard_constraints]
        out.append(Wcsp.build(g.num_vars, g.domains, functions, hard, g.top, g.name))
    return out


def _random_build(rng: random.Random) -> Wcsp:
    """Random tables of arity 1 to 3 with some costs at or above top, so
    that Wcsp.build clamps them; the last function is unary and all sub-top.
    Some hard constraints forbid nothing, so that Wcsp.build drops them."""
    n = rng.randint(1, 4)
    doms = [rng.randint(1, 3) for _ in range(n)]

    def tuples(scope):
        return itertools.product(*(range(doms[x]) for x in scope))

    scopes = [rng.sample(range(n), rng.randint(1, min(n, 3))) for _ in range(3)]
    funcs = [
        (scope, {t: rng.choice((0, 1, 2, 5, 9)) for t in tuples(scope)})
        for scope in scopes
    ]
    funcs.append(((0,), {(a,): a for a in range(doms[0])}))
    hard = [
        (scope, [t for t in tuples(scope) if rng.random() < 0.3])
        for scope in rng.sample(scopes, 2)
    ]
    return Wcsp.build(n, doms, funcs, hard, top=5)


@pytest.fixture(scope="session")
def random_built() -> list[Wcsp]:
    """40 instances of _random_build."""
    rng = random.Random(2501)
    return [_random_build(rng) for _ in range(40)]


@pytest.fixture()
def infeasible() -> Wcsp:
    # x0 is forbidden both values; the cost function keeps the model valid
    return Wcsp.build(
        1,
        [2],
        [((0,), {(0,): 1, (1,): 2})],
        hard=[((0,), [(0,)]), ((0,), [(1,)])],
        top=10,
        name="inf",
    )


@pytest.fixture()
def two_blocks() -> Wcsp:
    """Two independent contradictions: f1/f2 clash on (x0,x1), f3/f4 on
    (x2,x3). Optimum 8 = 3 (pay f1) + 5 (pay f3)."""
    funcs = [
        ((0, 1), {(0, 0): 0, (0, 1): 3, (1, 0): 3, (1, 1): 3}),
        ((0, 1), {(0, 1): 0, (0, 0): 4, (1, 0): 4, (1, 1): 4}),
        ((2, 3), {(0, 0): 0, (0, 1): 5, (1, 0): 5, (1, 1): 5}),
        ((2, 3), {(0, 1): 0, (0, 0): 6, (1, 0): 6, (1, 1): 6}),
    ]
    return Wcsp.build(4, [2, 2, 2, 2], funcs, top=100, name="twosub")
