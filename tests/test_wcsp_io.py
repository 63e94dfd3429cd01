import io
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hswcsp import (
    INFEASIBLE,
    OPTIMAL,
    ParseError,
    TraceEvent,
    TraceWriter,
    Wcsp,
    generate,
    hs_lub,
    parse_wcsp,
    read_trace,
    wcsp_to_text,
)
from hswcsp.wcsp_io import TRACE_HEADER, TRACE_KINDS, TRACE_SOURCES


def test_parse_fig1(fig1):
    assert fig1.name == "fig1"
    f, g = fig1.cost_functions
    assert f.scope == (0, 1) and g.scope == (1, 2)
    assert f.table == {(0, 0): 0, (0, 1): 20, (1, 0): 5, (1, 1): 20}
    assert g.table == {(0, 0): 20, (0, 1): 20, (1, 0): 5, (1, 1): 0}


def test_comments_and_blank_lines_ignored():
    w = parse_wcsp("# intro\n\nt 1 2 1 5\n2\n# block\n1 0 0 1\n1 3\n")
    assert w.evaluate((1,)).total == 3


def test_block_at_top_becomes_hard():
    w = parse_wcsp("t 1 2 2 5\n2\n1 0 0 1\n1 5\n1 0 0 1\n0 1\n")
    # first block forbids x0=1 outright, second is a real cost function
    assert w.m == 1
    assert len(w.hard_constraints) == 1
    assert not w.evaluate((1,)).feasible


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "unexpected end"),
        ("t x 2 1 5", "expected integer"),
        ("t 0 2 1 5", "must be positive"),
        ("t 1 2 0 5\n2", "must be positive"),
        ("t 1 2 1 0\n2", "top must be positive"),
        ("t 1 2 1 5\n3\n1 0 0 0", "exceeds declared maximum"),
        ("t 2 2 1 5\n2 2\n1 5 0 0", "out of range"),
        ("t 2 2 1 5\n2 2\n2 0 0 0 0", "repeated scope"),
        ("t 1 2 1 5\n2\n1 0 0 1\n5 1", "out of domain"),
        ("t 1 2 1 5\n2\n1 0 0 2\n0 1\n0 2", "duplicate tuple"),
        ("t 1 2 1 5\n2\n1 0 0 1\n0 -3", "negative cost"),
        ("t 1 2 1 5\n2\n1 0 0 0\n7", "trailing tokens"),
        ("t 1 2 1 5\n0", "domain size 0 of variable 0 must be positive"),
        ("t 1 2 1 5\n2\n0 0 0", "arity 0 of function 0 must be positive"),
        ("t 1 2 1 5\n2\n1 0 -1 0", "negative default cost"),
        ("t 1 2 1 5\n2\n1 0 0 -1", "negative tuple count"),
        # a model rule, not a text rule: Wcsp.build's error as a ParseError
        (f"t 1 2 1 {2**64}\n2\n1 0 0 1\n0 {2**63}", "exceeds the 64-bit budget"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_wcsp(text)


def test_parse_error_reports_line_number():
    err = None
    try:
        parse_wcsp("t 1 2 1 5\n2\n1 0 0 1\n0 -3\n")
    except ParseError as e:
        err = e
    assert err is not None and err.line == 4


@given(st.integers(0, 5000))
def test_roundtrip_evaluates_identically(seed):
    w = generate(
        seed=seed,
        num_vars=1 + seed % 4,
        max_dom=1 + seed % 3,
        num_funcs=1 + seed % 3,
        cost_range=9,
        hard_density=0.4 if seed % 2 else 0.0,
    )
    text = wcsp_to_text(w)
    w2 = parse_wcsp(text)
    assert w2.name == w.name
    assert w2.num_vars == w.num_vars and w2.domains == w.domains
    assert w2.top == w.top
    assert w2.levels_per_function() == w.levels_per_function()
    for a in w.assignments():
        assert w.evaluate(a) == w2.evaluate(a)
    assert wcsp_to_text(w2) == text
    assert w2.hard_constraints == w.hard_constraints


def test_text_is_a_fixed_point_with_top_entries(top_corpus):
    """A table entry at top is the one record of its forbidden tuple: the
    text of a parsed text is the same text, and reading it creates no hard
    constraint that the instance did not have, so round trips do not grow
    the instance."""
    assert any(
        c == w.top for w in top_corpus for f in w.cost_functions
        for c in f.table.values()
    )
    table = {(0, 0): 0, (0, 1): 3, (1, 0): 9, (1, 1): 1}
    example = Wcsp.build(2, (2, 2), [((0, 1), table)], top=9)
    assert example.hard_constraints == ()
    for w in top_corpus + [example]:
        text = wcsp_to_text(w)
        w2 = parse_wcsp(text)
        assert wcsp_to_text(w2) == text
        assert w2.hard_constraints == w.hard_constraints
        assert w2.cost_functions == w.cost_functions
        for a in w.assignments():
            assert w.evaluate(a) == w2.evaluate(a)


@given(st.integers(0, 5000))
def test_text_round_trip_is_exact_on_generated_instances(seed):
    w = generate(
        seed=seed,
        num_vars=1 + seed % 5,
        max_dom=1 + seed % 3,
        num_funcs=1 + seed % 4,
        cost_range=seed % 7,
        hard_density=(1 + seed % 3) / 5,
    )
    assert parse_wcsp(wcsp_to_text(w)) == w


def test_text_round_trip_is_exact(fig1, top_corpus, random_built):
    plain_csp = parse_wcsp("p 2 2 1 10\n2 2\n2 0 1 0 1\n0 0 10\n")
    for w in [fig1, plain_csp] + top_corpus + random_built:
        assert parse_wcsp(wcsp_to_text(w)) == w


def test_vacuous_hard_constraint_not_written():
    w = Wcsp.build(1, [2], [((0,), {(0,): 1, (1,): 2})], hard=[((0,), [])], top=10)
    w2 = parse_wcsp(wcsp_to_text(w))
    assert w2.m == 1
    assert w2.hard_constraints == ()


def test_roundtrip_of_parsed_file(fig1):
    again = parse_wcsp(wcsp_to_text(fig1))
    for a in fig1.assignments():
        assert fig1.evaluate(a) == again.evaluate(a)


# --- traces ---


def test_trace_event_validation():
    TraceEvent(0, "LB", 5, "SEED")
    with pytest.raises(ValueError, match="kind"):
        TraceEvent(0, "LOWER", 5, "SEED")
    with pytest.raises(ValueError, match="source"):
        TraceEvent(0, "LB", 5, "NOBODY")
    with pytest.raises(ValueError, match="negative"):
        TraceEvent(-1, "LB", 5, "SEED")


def test_trace_writer_layout():
    buf = io.StringIO()
    writer = TraceWriter(buf, comments=["invocation: x", "instance: y"])
    writer.write(TraceEvent(3, "UB", 25, "LB_WORKER"))
    lines = buf.getvalue().splitlines()
    assert lines == [
        "# invocation: x",
        "# instance: y",
        TRACE_HEADER,
        "3,UB,25,LB_WORKER",
    ]


events_strategy = st.lists(
    st.builds(
        TraceEvent,
        st.integers(0, 10**6),
        st.sampled_from(TRACE_KINDS),
        st.integers(0, 10**9),
        st.sampled_from(TRACE_SOURCES),
    ),
    max_size=20,
)


@given(events_strategy)
def test_trace_roundtrip(events):
    buf = io.StringIO()
    writer = TraceWriter(buf, comments=["c"])
    for event in events:
        writer.write(event)
    assert read_trace(buf.getvalue()) == list(events)


def test_trace_writer_splits_multiline_comments():
    buf = io.StringIO()
    TraceWriter(buf, comments=["invocation: hswcsp solve a\nb.wcsp", ""])
    assert buf.getvalue().splitlines() == [
        "# invocation: hswcsp solve a",
        "# b.wcsp",
        "# ",
        TRACE_HEADER,
    ]


@given(st.lists(st.text(), max_size=3), events_strategy)
def test_trace_roundtrip_with_any_comments(comments, events):
    buf = io.StringIO()
    writer = TraceWriter(buf, comments=comments)
    for event in events:
        writer.write(event)
    assert read_trace(buf.getvalue()) == list(events)


def test_readme_instance_example_is_fig1(fig1):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Instance format", 1)[1]
    example = section.split("```\n", 2)[1]
    assert parse_wcsp(example) == fig1


def test_pure_csp_gets_a_zero_cost_function():
    # one hard block forbidding x0 = x1 = 0: a valid plain CSP
    w = parse_wcsp("p 2 2 1 10\n2 2\n2 0 1 0 1\n0 0 10\n")
    assert len(w.hard_constraints) == 1
    assert w.m == 1 and w.cost_functions[0].levels == (0,)
    assert not w.evaluate((0, 0)).feasible
    assert w.evaluate((0, 1)).total == 0
    result = hs_lub(w)
    assert (result.status, result.optimum) == (OPTIMAL, 0)
    assert w.evaluate(result.witness).feasible


def test_infeasible_pure_csp():
    # two hard blocks forbid both values of x0
    w = parse_wcsp("p 1 2 2 10\n2\n1 0 0 1\n0 10\n1 0 0 1\n1 10\n")
    assert w.m == 1 and len(w.hard_constraints) == 2
    assert hs_lub(w).status == INFEASIBLE
