"""Pinned bound traces of the deterministic strategies on generated instances.

The fig1 goldens pin traces on a two-function instance; these pin them on
instances big enough that the hitting search meets ties among optimal
hitters and repeated lower bounds. A digest covers the (kind, value,
source) of every trace event plus the per-worker iteration counts, the
same payload the benchmark digests. A change that keeps the hitting
contract (same optimal cost, same lexicographic tie-break, same core
order) keeps every digest. The "+seed" runs pre-fill the pool with
seed_disjoint, so they also pin the bounds that seeding and its core
growth offer.

The node counts pin the work of the hitting search: the number of
branch-and-bound nodes entered over the whole solve, summed over every
min-cost, lex-min and bounded search. They move with any change to the
branching order, the pruning bounds or the budgets of the min-cost
search's iterative deepening, even one that keeps every digest; a tighter
bound, or a refuted lex-min check that a nogood answers without a search,
may only lower them.

The CDCL call counts pin the work of the SAT side: the number of
`CdclSolver.solve` calls over the whole solve, seeding's included. They
move when core growth skips or recalls a different set of probes, and
when its model rotation records a different set of witnesses for recall
to answer from.

The SAT transcripts pin what the SAT side answers: a digest of every
`CdclSolver.solve` call of the solve, in order, each as its assumptions,
its answer, and the model's true variables (SAT) or the failed
assumptions (UNSAT). A change to the solver's internals that keeps every
answer, model and `conflict` keeps every transcript; one that changes the
decision order, the phases or the learned clauses will usually move one,
even where the trace digests hold.

To re-pin, run this file as a script from the repository root:

    python3 tests/test_trace_pins.py

It solves every pinned case once and prints PINNED, NODES, CDCL_CALLS and
SAT_TRANSCRIPTS in this file's format, ready to paste over the tables
below. With --moved it prints instead one line per pin whose measured
value differs from its table below, and nothing else, and exits 1 if it
printed any and 0 otherwise:

    python3 tests/test_trace_pins.py --moved
"""

import argparse
import functools
import hashlib
import pathlib
import sys

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import hswcsp.cdcl as cdcl  # noqa: E402
import hswcsp.hitting as hitting  # noqa: E402
from hswcsp import OPTIMAL, generate, hs_lb, hs_lub, hs_ub  # noqa: E402

INSTANCES = {
    "soft": dict(seed=2001, num_vars=16, max_dom=2, num_funcs=26, cost_range=4),
    "hard": dict(
        seed=4, num_vars=16, max_dom=3, num_funcs=20, cost_range=2, hard_density=0.2
    ),
}

STRATEGIES = {
    "hs_lb": hs_lb,
    "hs_ub": hs_ub,
    "hs_lub_det": lambda w: hs_lub(w, deterministic=True),
    "hs_lb+seed": lambda w: hs_lb(w, seed_disjoint=True),
    "hs_ub+seed": lambda w: hs_ub(w, seed_disjoint=True),
    "hs_lub_det+seed": lambda w: hs_lub(w, deterministic=True, seed_disjoint=True),
}

PINNED = [
    ("soft", "hs_lb", 29, "621761a5788d965c"),
    ("soft", "hs_ub", 29, "b09e4efe5e70e4b8"),
    ("soft", "hs_lub_det", 29, "b9fb46b28fc2d3bb"),
    ("hard", "hs_lb", 6, "ceb0e780b7e2b75d"),
    ("hard", "hs_ub", 6, "9743b9fcffb937f8"),
    ("hard", "hs_lub_det", 6, "a90c95930e277eb1"),
    ("soft", "hs_lb+seed", 29, "b5c5111dfed1d049"),
    ("soft", "hs_ub+seed", 29, "876f3e8c76443840"),
    ("soft", "hs_lub_det+seed", 29, "cf2d8b45d33b4faa"),
    ("hard", "hs_lb+seed", 6, "c001adeb1037d76c"),
    ("hard", "hs_ub+seed", 6, "efcc4cdcaa754392"),
    ("hard", "hs_lub_det+seed", 6, "cb05e678e1fcdf0a"),
]


def trace_digest(result) -> str:
    payload = repr((
        [(e.kind, e.value, e.source) for e in result.trace],
        sorted(result.iterations.items()),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ids name the case only, so a re-pin keeps the test ids
@pytest.mark.parametrize(
    "instance, strategy, optimum, digest",
    PINNED,
    ids=[f"{instance}-{strategy}" for instance, strategy, _, _ in PINNED],
)
def test_trace_digest_pinned(instance, strategy, optimum, digest):
    r = STRATEGIES[strategy](generate(**INSTANCES[instance]))
    assert r.status == OPTIMAL and r.optimum == optimum
    assert trace_digest(r) == digest


NODES = {
    ("soft", "hs_lb"): 229,
    ("soft", "hs_ub"): 110,
    ("soft", "hs_lub_det"): 152,
    ("hard", "hs_lb"): 305,
    ("hard", "hs_ub"): 142,
    ("hard", "hs_lub_det"): 291,
    ("soft", "hs_lb+seed"): 182,
    ("soft", "hs_ub+seed"): 115,
    ("soft", "hs_lub_det+seed"): 118,
    ("hard", "hs_lb+seed"): 304,
    ("hard", "hs_ub+seed"): 158,
    ("hard", "hs_lub_det+seed"): 191,
}


@functools.cache
def measured_solve(instance: str, strategy: str):
    """Solve one pinned case; return the result, its search-node count, its
    CDCL call count and the digest of its SAT transcript. Cached: the
    three tests that read a case's counts share one solve."""
    nodes = calls = 0
    transcript = []
    make_poll = hitting._make_stop_poll
    solve = cdcl.CdclSolver.solve

    # every search node polls once, so counting polls counts nodes
    def counting(should_stop):
        poll = make_poll(should_stop)

        def counted():
            nonlocal nodes
            nodes += 1
            poll()

        return counted

    def counted_solve(self, assumptions=(), should_stop=None):
        nonlocal calls
        calls += 1
        answer = solve(self, assumptions, should_stop)
        if answer:
            out = [v for v in range(1, self.nvars + 1) if self.model[v] == 1]
        else:
            out = list(self.conflict)
        transcript.append((list(assumptions), answer, out))
        return answer

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hitting, "_make_stop_poll", counting)
        mp.setattr(cdcl.CdclSolver, "solve", counted_solve)
        r = STRATEGIES[strategy](generate(**INSTANCES[instance]))
    digest = hashlib.sha256(repr(transcript).encode()).hexdigest()[:16]
    return r, nodes, calls, digest


@pytest.mark.parametrize("instance, strategy", list(NODES))
def test_search_node_count_pinned(instance, strategy):
    r, nodes, _, _ = measured_solve(instance, strategy)
    assert r.status == OPTIMAL
    assert nodes == NODES[instance, strategy]


CDCL_CALLS = {
    ("soft", "hs_lb"): 50,
    ("soft", "hs_ub"): 45,
    ("soft", "hs_lub_det"): 52,
    ("hard", "hs_lb"): 64,
    ("hard", "hs_ub"): 53,
    ("hard", "hs_lub_det"): 57,
    ("soft", "hs_lb+seed"): 45,
    ("soft", "hs_ub+seed"): 43,
    ("soft", "hs_lub_det+seed"): 49,
    ("hard", "hs_lb+seed"): 64,
    ("hard", "hs_ub+seed"): 52,
    ("hard", "hs_lub_det+seed"): 52,
}


@pytest.mark.parametrize("instance, strategy", list(CDCL_CALLS))
def test_cdcl_call_count_pinned(instance, strategy):
    r, _, calls, _ = measured_solve(instance, strategy)
    assert r.status == OPTIMAL
    assert calls == CDCL_CALLS[instance, strategy]


SAT_TRANSCRIPTS = {
    ("soft", "hs_lb"): "0ea7e404a12f684c",
    ("soft", "hs_ub"): "5c4d4aca9fc4af09",
    ("soft", "hs_lub_det"): "3f4ba4e7e772579e",
    ("hard", "hs_lb"): "31633de8cbbb7845",
    ("hard", "hs_ub"): "012c7422e0804862",
    ("hard", "hs_lub_det"): "6ee61e78b8d679b2",
    ("soft", "hs_lb+seed"): "137d5d0be0185b61",
    ("soft", "hs_ub+seed"): "3e530b381d55d27d",
    ("soft", "hs_lub_det+seed"): "eb2acd7cb164d043",
    ("hard", "hs_lb+seed"): "31633de8cbbb7845",
    ("hard", "hs_ub+seed"): "b25a86c284408a20",
    ("hard", "hs_lub_det+seed"): "be734c07ddc61628",
}


@pytest.mark.parametrize("instance, strategy", list(SAT_TRANSCRIPTS))
def test_sat_transcript_pinned(instance, strategy):
    r, _, _, digest = measured_solve(instance, strategy)
    assert r.status == OPTIMAL
    assert digest == SAT_TRANSCRIPTS[instance, strategy]


def measured_pins() -> dict[str, dict]:
    """Every pin table as measured on this tree, keyed by (instance,
    strategy); a PINNED value is its (optimum, digest) pair."""
    tables = {name: {} for name in ("PINNED", "NODES", "CDCL_CALLS", "SAT_TRANSCRIPTS")}
    for instance, strategy, _, _ in PINNED:
        key = instance, strategy
        r, nodes, calls, transcript = measured_solve(*key)
        if r.status != OPTIMAL:
            raise SystemExit(f"{instance} {strategy}: status {r.status}, not OPTIMAL")
        tables["PINNED"][key] = r.optimum, trace_digest(r)
        tables["NODES"][key] = nodes
        tables["CDCL_CALLS"][key] = calls
        tables["SAT_TRANSCRIPTS"][key] = transcript
    return tables


def print_pins() -> None:
    """Print PINNED, NODES, CDCL_CALLS and SAT_TRANSCRIPTS as measured on
    this tree."""
    tables = measured_pins()
    print("PINNED = [")
    for (instance, strategy), (optimum, digest) in tables.pop("PINNED").items():
        print(f"    {(instance, strategy, optimum, digest)!r},".replace("'", '"'))
    print("]")
    for name, table in tables.items():
        print(f"\n{name} = {{")
        for key, value in table.items():
            print(f"    {key!r}: {value!r},".replace("'", '"'))
        print("}")


def print_moved() -> list[str]:
    """Print one line per pin whose measured value differs from its table
    in this file, e.g. `CDCL_CALLS hard hs_lb+seed: 102 -> 95`, and return
    the lines printed."""
    pinned = {
        "PINNED": {(i, s): (optimum, digest) for i, s, optimum, digest in PINNED},
        "NODES": NODES,
        "CDCL_CALLS": CDCL_CALLS,
        "SAT_TRANSCRIPTS": SAT_TRANSCRIPTS,
    }

    def show(value) -> str:
        return " ".join(map(str, value)) if isinstance(value, tuple) else str(value)

    moved = [
        f"{name} {' '.join(key)}: {show(pinned[name][key])} -> {show(value)}"
        for name, table in measured_pins().items()
        for key, value in table.items()
        if value != pinned[name][key]
    ]
    for line in moved:
        print(line)
    return moved


def test_moved_lists_only_the_pins_that_differ(monkeypatch, capsys):
    assert print_moved() == []
    assert capsys.readouterr().out == ""
    key = "hard", "hs_lb+seed"
    calls = CDCL_CALLS[key]
    monkeypatch.setitem(CDCL_CALLS, key, calls + 7)
    line = f"CDCL_CALLS hard hs_lb+seed: {calls + 7} -> {calls}"
    assert print_moved() == [line]
    assert capsys.readouterr().out == line + "\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the pin tables as measured.")
    parser.add_argument("--moved", action="store_true",
                        help="print only the pins that differ from this file's tables")
    if parser.parse_args().moved:
        sys.exit(1 if print_moved() else 0)
    else:
        print_pins()
