"""Finite algebras, term evaluation, and derived algebras.

An algebra interprets every operation symbol of its signature by a total
table over universe indices.  Tables are stored flat in row-major order
(first argument varies slowest); a constant's table is a single entry.
Elements are referenced by index internally and by label at the text
boundary.  Values are immutable after construction and evaluation is pure,
so evaluations over disjoint assignments may run concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from .hypersubs import HyperSub
from .terms import Signature, Term, Var


class AlgebraError(ValueError):
    """Raised for malformed algebras or invalid evaluations."""


@dataclass(frozen=True)
class FiniteAlgebra:
    sig: Signature
    universe: tuple[str, ...]
    tables: tuple[tuple[str, tuple[int, ...]], ...]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.universe:
            raise AlgebraError("universe must be non-empty")
        if len(set(self.universe)) != len(self.universe):
            raise AlgebraError("duplicate element labels")
        size = len(self.universe)
        given = dict(self.tables)
        for op, arity in self.sig.ops:
            if op not in given:
                raise AlgebraError(f"missing table for operation {op!r}")
            table = given[op]
            if len(table) != size**arity:
                raise AlgebraError(
                    f"table for {op!r} has {len(table)} entries, "
                    f"expected {size**arity}"
                )
            for entry in table:
                if not 0 <= entry < size:
                    raise AlgebraError(
                        f"table for {op!r} contains out-of-range entry {entry}"
                    )
        if set(given) != set(self.sig.op_names):
            extra = set(given) - set(self.sig.op_names)
            raise AlgebraError(f"tables for unknown operations {sorted(extra)}")

    @classmethod
    def of(
        cls,
        sig: Signature,
        universe: Sequence[str],
        tables: Mapping[str, Sequence[int]],
        name: str = "",
    ) -> "FiniteAlgebra":
        ordered = tuple(
            (op, tuple(tables[op])) for op, _ in sig.ops if op in tables
        )
        return cls(sig, tuple(universe), ordered, name=name)

    @property
    def size(self) -> int:
        return len(self.universe)

    def table(self, op: str) -> tuple[int, ...]:
        for o, t in self.tables:
            if o == op:
                return t
        raise AlgebraError(f"no table for operation {op!r}")

    def op_value(self, op: str, args: Sequence[int]) -> int:
        pos = 0
        for a in args:
            pos = pos * self.size + a
        return self.table(op)[pos]

    def eval(self, term: Term, env: Mapping[int, int]) -> int:
        """Bottom-up evaluation of `term` under the assignment `env`."""
        if isinstance(term, Var):
            if term.index not in env:
                raise AlgebraError(f"unassigned variable x{term.index}")
            return env[term.index]
        return self.op_value(term.op, [self.eval(a, env) for a in term.args])

    def term_table(self, term: Term, arity: int) -> tuple[int, ...]:
        """The `arity`-ary term operation of `term` (over x0..x_{arity-1}),
        as a flat row-major table."""
        return tuple(
            self.eval(term, dict(enumerate(tup)))
            for tup in itertools.product(range(self.size), repeat=arity)
        )

    def derived(self, sigma: HyperSub) -> "FiniteAlgebra":
        """Reinterpret every operation as the term operation of its image."""
        tables = tuple(
            (op, self.term_table(sigma.image(op), arity)) for op, arity in self.sig.ops
        )
        return FiniteAlgebra(self.sig, self.universe, tables, name=self.name)

    def assignments(self, variables: Sequence[int]) -> Iterator[dict[int, int]]:
        """All assignments to the given variables, in lexicographic order
        (variables sorted ascending)."""
        vs = sorted(variables)
        for values in itertools.product(range(self.size), repeat=len(vs)):
            yield dict(zip(vs, values))


def all_algebras(sig: Signature, size: int) -> Iterator[FiniteAlgebra]:
    """Every algebra of the given size over `sig`, in table order.

    Only practical for tiny signatures and sizes; used by exhaustive sweeps.
    """
    universe = tuple(str(i) for i in range(size))
    per_op = [
        list(itertools.product(range(size), repeat=size**arity))
        for _, arity in sig.ops
    ]
    for combo in itertools.product(*per_op):
        tables = tuple(
            (op, entries) for (op, _), entries in zip(sig.ops, combo)
        )
        yield FiniteAlgebra(sig, universe, tables)
