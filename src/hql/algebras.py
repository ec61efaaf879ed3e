"""Finite algebras, term evaluation, and derived algebras.

An algebra interprets every operation symbol of its signature by a total
table over universe indices.  Tables are kept in signature order, one per
operation, so a derived algebra is given by its tuple of derived tables.
Each is flat in row-major order (first argument varies slowest); a
constant's table is a single entry.
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

# Most assignments evaluated together by one `FiniteAlgebra.values` call.
BLOCK = 4096


class AlgebraError(ValueError):
    """Raised for malformed algebras or invalid evaluations."""


@dataclass(frozen=True)
class FiniteAlgebra:
    sig: Signature
    universe: tuple[str, ...]
    tables: tuple[tuple[int, ...], ...]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        size = len(self.universe)
        if not size:
            raise AlgebraError("universe must be non-empty")
        if len(set(self.universe)) != size:
            raise AlgebraError("duplicate element labels")
        if len(self.tables) != len(self.sig.ops):
            raise AlgebraError(f"{len(self.tables)} table(s) for {len(self.sig.ops)} operation(s)")
        for (op, arity), table in zip(self.sig.ops, self.tables):
            if len(table) != size**arity:
                raise AlgebraError(
                    f"table for {op!r} has {len(table)} entries, "
                    f"expected {size**arity}"
                )
            if min(table) < 0 or max(table) >= size:
                entry = next(e for e in table if not 0 <= e < size)
                raise AlgebraError(
                    f"table for {op!r} contains out-of-range entry {entry}"
                )

    @classmethod
    def of(
        cls,
        sig: Signature,
        universe: Sequence[str],
        tables: Mapping[str, Sequence[int]],
        name: str = "",
    ) -> "FiniteAlgebra":
        """The algebra with the table `tables[op]` for each operation."""
        for op in sig.op_names:
            if op not in tables:
                raise AlgebraError(f"missing table for operation {op!r}")
        if len(tables) != len(sig.ops):
            extra = set(tables) - set(sig.op_names)
            raise AlgebraError(f"tables for unknown operations {sorted(extra)}")
        ordered = tuple(tuple(tables[op]) for op in sig.op_names)
        return cls(sig, tuple(universe), ordered, name=name)

    @property
    def size(self) -> int:
        return len(self.universe)

    def table(self, op: str) -> tuple[int, ...]:
        i = self.sig.position.get(op)
        if i is None:
            raise AlgebraError(f"no table for operation {op!r}")
        return self.tables[i]

    def values(self, terms: Sequence[Term], columns: Mapping[int, Sequence[int]]) -> list[list[int]]:
        """Each term's value at every position, where `columns` maps each
        variable to its values, one per position.  Bottom-up with an
        explicit stack; a node shared between terms is evaluated once."""
        size, n = self.size, len(next(iter(columns.values()), [0]))
        memo: dict[Term, list[int]] = {}
        stack = list(terms)
        while stack:
            t = stack.pop()
            if t in memo:
                continue
            if isinstance(t, Var):
                if t.index not in columns:
                    raise AlgebraError(f"unassigned variable x{t.index}")
                memo[t] = list(columns[t.index])
                continue
            pending = [a for a in t.args if a not in memo]
            if pending:
                stack += [t, *pending]
                continue
            pos = memo[t.args[0]] if t.args else [0] * n
            for a in t.args[1:]:
                pos = [p * size + q for p, q in zip(pos, memo[a])]
            memo[t] = list(map(self.table(t.op).__getitem__, pos))
        return [memo[t] for t in terms]

    def eval(self, term: Term, env: Mapping[int, int]) -> int:
        """The value of `term` under the assignment `env`."""
        return self.values([term], {v: [a] for v, a in env.items()})[0][0]

    def term_table(self, term: Term, arity: int) -> tuple[int, ...]:
        """The `arity`-ary term operation of `term` (over x0..x_{arity-1}),
        as a flat row-major table."""
        return tuple(v for c in self.blocks(range(arity)) for v in self.values([term], c)[0])

    def derived(self, sigma: HyperSub) -> "FiniteAlgebra":
        """Reinterpret every operation as the term operation of its image."""
        tables = tuple(self.term_table(sigma.image(op), arity) for op, arity in self.sig.ops)
        return FiniteAlgebra(self.sig, self.universe, tables, name=self.name)

    def assignments(self, variables: Sequence[int]) -> Iterator[dict[int, int]]:
        """All assignments to the given variables, in lexicographic order
        (variables sorted ascending)."""
        vs = sorted(variables)
        for values in itertools.product(range(self.size), repeat=len(vs)):
            yield dict(zip(vs, values))

    def blocks(self, variables: Sequence[int]) -> Iterator[dict[int, list[int]]]:
        """Columns for `values` that together cover every assignment to the
        given variables, in the order of `assignments`, at most BLOCK per
        block: memory stays flat and a refutation stops after the block of
        its witness.  The trailing variables vary inside a block."""
        vs, inner = sorted(variables), 0
        while inner < len(vs) and self.size ** (inner + 1) <= BLOCK:
            inner += 1
        split, rows = len(vs) - inner, itertools.product(range(self.size), repeat=inner)
        trailing = dict(zip(vs[split:], map(list, zip(*rows))))
        for fixed in self.assignments(vs[:split]):
            yield {**{v: [a] * self.size**inner for v, a in fixed.items()}, **trailing}


def all_algebras(sig: Signature, size: int) -> Iterator[FiniteAlgebra]:
    """Every algebra of the given size over `sig`, in table order.

    Only practical for tiny signatures and sizes; used by exhaustive sweeps.
    """
    universe = tuple(str(i) for i in range(size))
    per_op = [
        list(itertools.product(range(size), repeat=size**arity))
        for _, arity in sig.ops
    ]
    for tables in itertools.product(*per_op):
        yield FiniteAlgebra(sig, universe, tables)
