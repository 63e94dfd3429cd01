"""Core data model: weighted CSP instances, cost vectors and their order.

A problem instance couples hard constraints (forbidden tuples) with table
cost functions over the same variables. Cost vectors live in the product of
the per-function level sets; the componentwise order on them is what the
whole solver is built on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

INF = float("inf")

_COST_LIMIT = 2**63  # keep sums comfortably inside 64 bits


class SearchAborted(RuntimeError):
    """Raised by long-running searches when a stop callback fires."""


def _scope_key(scope: tuple[int, ...]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The function mapping an assignment to its values on scope, as a
    tuple: itemgetter, except on a unary scope, where itemgetter(x) would
    return the bare value."""
    if len(scope) == 1:
        (x,) = scope
        return lambda a: (a[x],)
    return itemgetter(*scope)


def _check_scope(scope: Sequence[int], num_vars: int) -> tuple[int, ...]:
    scope = tuple(scope)
    if len(scope) == 0:
        raise ValueError("empty scope")
    if len(set(scope)) != len(scope):
        raise ValueError(f"repeated variable in scope {scope}")
    for x in scope:
        if not (0 <= x < num_vars):
            raise ValueError(f"scope variable {x} out of range")
    return scope


@dataclass(frozen=True)
class HardConstraint:
    """A set of forbidden value tuples over a variable scope."""

    scope: tuple[int, ...]
    forbidden: frozenset[tuple[int, ...]]

    @cached_property
    def key(self) -> Callable[[Sequence[int]], tuple[int, ...]]:
        """An assignment's value tuple on the scope."""
        return _scope_key(self.scope)


@dataclass(frozen=True)
class CostFunction:
    """Dense table cost function.

    `table` maps every value tuple of the scope to a nonnegative integer
    cost, at most the instance top. An entry at top forbids its tuple, and
    it is the only record that it does. `levels` is the ascending tuple of
    distinct sub-top costs.
    """

    scope: tuple[int, ...]
    table: dict[tuple[int, ...], int]
    levels: tuple[int, ...]

    @cached_property
    def key(self) -> Callable[[Sequence[int]], tuple[int, ...]]:
        """An assignment's value tuple on the scope: its key in `table`."""
        return _scope_key(self.scope)

    @cached_property
    def index(self) -> dict[int, int]:
        """The level table: each level's position in `levels`. Built on
        first use, so parsing an instance does not pay for it."""
        return {c: j for j, c in enumerate(self.levels)}


class Evaluation(NamedTuple):
    total: int
    per_function: tuple[int, ...]
    feasible: bool


@dataclass(frozen=True)
class Wcsp:
    """A weighted CSP instance.

    Invariants are validated at construction: at least one cost function,
    every domain nonempty, scopes in range without repeats, tables dense
    with costs from 0 to `top`, levels consistent with tables, no table
    that only forbids, no hard constraint that forbids nothing, and a
    name that is one token not starting with `#`. An instance is thereby
    canonical: its text reads back as an equal instance. Use
    :meth:`Wcsp.build` to construct from raw tables.
    """

    num_vars: int
    domains: tuple[int, ...]
    hard_constraints: tuple[HardConstraint, ...]
    cost_functions: tuple[CostFunction, ...]
    top: int
    name: str = "wcsp"

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValueError("instance needs at least one variable")
        if len(self.domains) != self.num_vars:
            raise ValueError("domain list length != num_vars")
        if any(d < 1 for d in self.domains):
            raise ValueError("every domain must have at least one value")
        if self.top < 1:
            raise ValueError("top must be a positive integer")
        if len(self.cost_functions) < 1:
            raise ValueError("instance needs at least one cost function")
        if self.name.split() != [self.name] or self.name.startswith("#"):
            raise ValueError(
                f"name {self.name!r} must be one token not starting with '#'"
            )
        for hc in self.hard_constraints:
            if not hc.forbidden:
                raise ValueError(f"hard constraint over {hc.scope} forbids nothing")
            scope = _check_scope(hc.scope, self.num_vars)
            for t in hc.forbidden:
                self._check_tuple(scope, t)
        max_sum, top = 0, self.top
        for f in self.cost_functions:
            scope = _check_scope(f.scope, self.num_vars)
            full = 1
            for x in scope:
                full *= self.domains[x]
            if len(f.table) != full:
                raise ValueError(
                    f"table over scope {scope} is not dense "
                    f"({len(f.table)} of {full} tuples)"
                )
            sub_top, forbids = set(), False
            for t, c in f.table.items():
                self._check_tuple(scope, t)
                if not isinstance(c, int) or c < 0 or c > top:
                    raise ValueError(f"negative, non-integer or above-top cost {c!r}")
                if c >= _COST_LIMIT:
                    raise ValueError(f"cost {c} exceeds the 64-bit budget")
                if c < top:
                    sub_top.add(c)
                else:
                    forbids = True
            if forbids and sub_top <= {0}:
                raise ValueError(
                    f"function over scope {scope} only forbids; "
                    "a table that only forbids is a hard constraint"
                )
            if f.levels != tuple(sorted(sub_top)):
                raise ValueError(f"levels {f.levels} do not match table")
            max_sum += f.levels[-1]
        if max_sum >= _COST_LIMIT:
            raise ValueError("sum of maximum levels exceeds the 64-bit budget")

    def _check_tuple(self, scope: tuple[int, ...], t: tuple[int, ...]) -> None:
        if len(t) != len(scope):
            raise ValueError(f"tuple {t} does not match scope arity {len(scope)}")
        for x, v in zip(scope, t):
            if not (0 <= v < self.domains[x]):
                raise ValueError(f"value {v} out of domain for variable {x}")

    @classmethod
    def build(
        cls,
        num_vars: int,
        domains: Sequence[int],
        functions: Iterable[tuple[Sequence[int], dict[tuple[int, ...], int]]],
        hard: Iterable[tuple[Sequence[int], Iterable[tuple[int, ...]]]] = (),
        top: int = 1,
        name: str = "wcsp",
    ) -> "Wcsp":
        """Normalize raw tables into the canonical instance.

        Table entries with cost >= top are clamped to exactly top, the one
        record that their tuple is forbidden. A table that forbids something
        and whose every sub-top cost is 0 becomes a hard constraint instead;
        those and `hard` are the only hard constraints, and one that forbids
        nothing is dropped. If hard constraints remain but no cost function
        does, the instance is a plain CSP: it gets one all-zero unary cost
        function, so its optimum is 0 when it is feasible.
        """
        hcs = [
            HardConstraint(tuple(scope), frozenset(map(tuple, tuples)))
            for scope, tuples in hard
        ]
        hcs = [hc for hc in hcs if hc.forbidden]
        fns = []
        for scope, table in functions:
            scope = tuple(scope)
            forbidden = frozenset(t for t, c in table.items() if c >= top)
            if forbidden and all(c == 0 or c >= top for c in table.values()):
                hcs.append(HardConstraint(scope, forbidden))
                continue
            table = {t: min(c, top) for t, c in table.items()} if forbidden else dict(table)
            sub_top = {c for c in table.values() if c < top}
            fns.append(CostFunction(scope, table, tuple(sorted(sub_top))))
        domains = tuple(domains)
        if hcs and not fns and domains:
            fns.append(CostFunction((0,), {(a,): 0 for a in range(domains[0])}, (0,)))
        return cls(num_vars, domains, tuple(hcs), tuple(fns), top, name)

    @property
    def m(self) -> int:
        return len(self.cost_functions)

    def levels_per_function(self) -> tuple[tuple[int, ...], ...]:
        return tuple(f.levels for f in self.cost_functions)

    def min_vector(self) -> tuple[int, ...]:
        return tuple(f.levels[0] for f in self.cost_functions)

    def max_vector(self) -> tuple[int, ...]:
        return tuple(f.levels[-1] for f in self.cost_functions)

    def assignments(self) -> Iterable[tuple[int, ...]]:
        return itertools.product(*(range(d) for d in self.domains))

    def validate_assignment(self, a: Sequence[int]) -> tuple[int, ...]:
        a = tuple(a)
        if len(a) != self.num_vars:
            raise ValueError(f"assignment length {len(a)} != {self.num_vars}")
        for x, v in enumerate(a):
            if not (0 <= v < self.domains[x]):
                raise ValueError(f"value {v} out of domain for variable {x}")
        return a

    def level_indices(self, v: Sequence[int]) -> list[int]:
        """The position of each component of v in its function's levels.
        Raises ValueError unless v is a vector of levels."""
        if len(v) != self.m:
            raise ValueError(f"vector length {len(v)} != m={self.m}")
        try:
            return [f.index[c] for f, c in zip(self.cost_functions, v)]
        except KeyError:
            for f, c in zip(self.cost_functions, v):
                if c not in f.index:
                    msg = f"{c} is not a level of function {f.scope}"
                    raise ValueError(msg) from None
            raise

    def evaluate(self, a: Sequence[int]) -> Evaluation:
        """Total cost, per-function costs, and feasibility of an assignment.

        Infeasible means some hard constraint forbids it or some table entry
        sits at top; per-function costs are reported raw either way.
        """
        a = self.validate_assignment(a)
        per = tuple([f.table[f.key(a)] for f in self.cost_functions])
        feasible = max(per) < self.top and not any(
            hc.key(a) in hc.forbidden for hc in self.hard_constraints
        )
        return Evaluation(sum(per), per, feasible)
