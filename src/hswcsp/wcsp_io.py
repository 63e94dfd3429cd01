"""Reading and writing instances, plus the bound-trace CSV format.

Instance text format, whitespace separated, blank lines and full-line `#`
comments ignored:

    <name> <num_vars> <max_domain_size> <num_functions> <top>
    <domain size of variable 0> ... <domain size of variable n-1>
    then per declared function:
    <arity> <var_1> ... <var_arity> <default_cost> <num_tuples>
    followed by num_tuples lines:
    <val_1> ... <val_arity> <cost>

Variables and values are 0-based. Costs at or above top are hard-forbidden.
Reading hands the blocks to Wcsp.build, which alone decides what each
block becomes (a cost function or a hard constraint); this module only
reads and writes text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import IO, Sequence

from .model import Wcsp


class ParseError(ValueError):
    """Malformed instance text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _Tokens:
    """Token stream that remembers the line each token came from."""

    def __init__(self, text: str):
        self._items: list[tuple[str, int]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            for tok in stripped.split():
                self._items.append((tok, lineno))
        self._pos = 0
        self.last_line = 1

    def exhausted(self) -> bool:
        return self._pos >= len(self._items)

    def next_str(self, what: str) -> str:
        if self.exhausted():
            raise ParseError(self.last_line, f"unexpected end of input, expected {what}")
        tok, line = self._items[self._pos]
        self._pos += 1
        self.last_line = line
        return tok

    def next_int(self, what: str) -> int:
        tok = self.next_str(what)
        try:
            return int(tok)
        except ValueError:
            raise ParseError(self.last_line, f"expected integer {what}, got {tok!r}") from None


def parse_wcsp(text: str) -> Wcsp:
    """Parse instance text into a validated Wcsp."""
    toks = _Tokens(text)
    name = toks.next_str("instance name")
    num_vars = toks.next_int("variable count")
    max_dom = toks.next_int("maximum domain size")
    num_funcs = toks.next_int("function count")
    top = toks.next_int("top")
    if num_vars < 1:
        raise ParseError(toks.last_line, "variable count must be positive")
    if num_funcs < 1:
        raise ParseError(toks.last_line, "function count must be positive")
    if top < 1:
        raise ParseError(toks.last_line, "top must be positive")

    domains = []
    for x in range(num_vars):
        d = toks.next_int(f"domain size of variable {x}")
        if d < 1:
            raise ParseError(toks.last_line, f"domain size {d} of variable {x} must be positive")
        domains.append(d)
    if max(domains) > max_dom:
        raise ParseError(toks.last_line, f"domain size {max(domains)} exceeds declared maximum {max_dom}")

    functions = []
    for fi in range(num_funcs):
        arity = toks.next_int(f"arity of function {fi}")
        if arity < 1:
            raise ParseError(toks.last_line, f"arity {arity} of function {fi} must be positive")
        scope = []
        for _ in range(arity):
            x = toks.next_int("scope variable")
            if not (0 <= x < num_vars):
                raise ParseError(toks.last_line, f"scope variable {x} out of range")
            if x in scope:
                raise ParseError(toks.last_line, f"repeated scope variable {x}")
            scope.append(x)
        default = toks.next_int("default cost")
        if default < 0:
            raise ParseError(toks.last_line, f"negative default cost {default}")
        ntuples = toks.next_int("tuple count")
        if ntuples < 0:
            raise ParseError(toks.last_line, f"negative tuple count {ntuples}")
        table = {
            t: default
            for t in itertools.product(*(range(domains[x]) for x in scope))
        }
        seen = set()
        for _ in range(ntuples):
            t = []
            for x in scope:
                v = toks.next_int("tuple value")
                if not (0 <= v < domains[x]):
                    raise ParseError(toks.last_line, f"value {v} out of domain for variable {x}")
                t.append(v)
            c = toks.next_int("tuple cost")
            if c < 0:
                raise ParseError(toks.last_line, f"negative cost {c}")
            t = tuple(t)
            if t in seen:
                raise ParseError(toks.last_line, f"duplicate tuple {t} in function {fi}")
            seen.add(t)
            table[t] = c
        functions.append((tuple(scope), table))

    if not toks.exhausted():
        raise ParseError(toks._items[toks._pos][1], "trailing tokens after last function block")

    try:
        return Wcsp.build(num_vars, domains, functions, top=top, name=name)
    except ValueError as e:
        raise ParseError(toks.last_line, str(e)) from e


def parse_wcsp_file(path: str) -> Wcsp:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_wcsp(fh.read())


def wcsp_to_text(w: Wcsp) -> str:
    """Serialize an instance as text: parse_wcsp(wcsp_to_text(w)) == w for
    every valid w. Cost functions are written with default 0 and explicit
    nonzero tuples (entries at top included) in lexicographic order; hard
    constraints follow, as blocks whose forbidden tuples carry cost top.
    """
    blocks = len(w.cost_functions) + len(w.hard_constraints)
    lines = [
        f"{w.name} {w.num_vars} {max(w.domains)} {blocks} {w.top}",
        " ".join(str(d) for d in w.domains),
    ]
    for f in w.cost_functions:
        rows = [(t, c) for t, c in sorted(f.table.items()) if c != 0]
        lines.append(f"{len(f.scope)} {' '.join(map(str, f.scope))} 0 {len(rows)}")
        lines += [f"{' '.join(map(str, t))} {c}" for t, c in rows]
    for hc in w.hard_constraints:
        rows = sorted(hc.forbidden)
        lines.append(f"{len(hc.scope)} {' '.join(map(str, hc.scope))} 0 {len(rows)}")
        lines += [f"{' '.join(map(str, t))} {w.top}" for t in rows]
    return "\n".join(lines) + "\n"


# --- bound traces ---

TRACE_KINDS = ("LB", "UB", "CORE", "DONE")
TRACE_SOURCES = ("LB_WORKER", "UB_WORKER", "SEED", "MAIN")
TRACE_HEADER = "elapsed_ms,kind,value,source"


@dataclass(frozen=True)
class TraceEvent:
    """One bound-trace row: a monotonic-clock timestamp in ms, what changed
    (LB/UB/CORE/DONE), the new value (bound, cumulative core count, or final
    optimum), and which loop reported it."""

    elapsed_ms: int
    kind: str
    value: int
    source: str

    def __post_init__(self) -> None:
        if self.kind not in TRACE_KINDS:
            raise ValueError(f"unknown trace kind {self.kind!r}")
        if self.source not in TRACE_SOURCES:
            raise ValueError(f"unknown trace source {self.source!r}")
        if self.elapsed_ms < 0:
            raise ValueError("negative timestamp")

    def as_row(self) -> str:
        return f"{self.elapsed_ms},{self.kind},{self.value},{self.source}"


class TraceWriter:
    """Streams trace events as CSV, flushing after every row so an
    interrupted run still leaves a readable prefix. Comment lines (leading
    `#`) may be emitted before the header."""

    def __init__(self, sink: IO[str], comments: Sequence[str] = ()):
        self._sink = sink
        for c in comments:
            sink.write(f"# {c}\n")
        sink.write(TRACE_HEADER + "\n")
        sink.flush()

    def write(self, event: TraceEvent) -> None:
        self._sink.write(event.as_row() + "\n")
        self._sink.flush()


def read_trace(text: str) -> list[TraceEvent]:
    """Parse trace CSV back into events, skipping comments and the header."""
    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line == TRACE_HEADER:
            continue
        ms, kind, value, source = line.split(",")
        events.append(TraceEvent(int(ms), kind, int(value), source))
    return events
