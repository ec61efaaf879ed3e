"""Finite algebras, term evaluation, and derived algebras.

An algebra interprets every operation symbol of its signature by a total
table over universe indices.  Tables are kept in signature order, one per
operation, so a derived algebra is given by its tuple of derived tables.
Each is flat in row-major order (first argument varies slowest); a
constant's table is a single entry.
Elements are referenced by index internally and by label at the text
boundary.  Values are immutable after construction and evaluation is pure,
so evaluations over disjoint assignments may run concurrently.

One evaluator, `FiniteAlgebra.values`, evaluates terms bottom-up over
columns of assignments.  A derived table is one `values` call over the
assignment grid of its arity, whose columns are built once per (universe
size, arity) and shared.  A caller may pass `values` a memo of the tables
already known over the same columns, so the table of f(t1, ..., tk) is f
applied to the tables of the ti, and one check evaluates each subterm
shared by its images once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from .hypersubs import HyperSub
from .terms import App, Signature, Term, Var

# Most assignments evaluated together by one `FiniteAlgebra.values` call.
BLOCK = 4096


@functools.lru_cache(maxsize=None)
def grid(size: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The columns of all size**n assignments to x0..x(n-1), in
    lexicographic order: column i holds the values of xi.  Built once per
    (size, n); callers keep size**n within BLOCK."""
    return tuple(zip(*itertools.product(range(size), repeat=n)))


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

    def values(
        self,
        terms: Sequence[Term],
        columns: Mapping[int, Sequence[int]],
        memo: dict[Term, tuple[int, ...]] | None = None,
    ) -> list[tuple[int, ...]]:
        """Each term's value at every position, where `columns` maps each
        variable to its values, one per position.  Bottom-up with an
        explicit stack; a node shared between terms is evaluated once.
        An application's row-major table index is folded over its arguments
        but the last, and the last step is taken inside the table lookup.
        `memo` holds the values already known at these same positions, keyed
        by term; the call reads it and fills it in."""
        size, n = self.size, len(next(iter(columns.values()), [0]))
        memo = {} if memo is None else memo
        stack = list(terms)
        while stack:
            t = stack.pop()
            if t in memo:
                continue
            if isinstance(t, Var):
                if t.index not in columns:
                    raise AlgebraError(f"unassigned variable x{t.index}")
                memo[t] = tuple(columns[t.index])
                continue
            pending = [a for a in t.args if a not in memo]
            if pending:
                stack += [t, *pending]
                continue
            table, args = self.table(t.op), [memo[a] for a in t.args]
            if len(args) < 2:
                memo[t] = tuple(map(table.__getitem__, args[0] if args else (0,) * n))
                continue
            pos = args[0]
            for a in args[1:-1]:
                pos = [p * size + q for p, q in zip(pos, a)]
            memo[t] = tuple([table[p * size + q] for p, q in zip(pos, args[-1])])
        return [memo[t] for t in terms]

    def eval(self, term: Term, env: Mapping[int, int]) -> int:
        """The value of `term` under the assignment `env`."""
        return self.values([term], {v: [a] for v, a in env.items()})[0][0]

    def term_table(
        self, term: Term, arity: int, memo: dict[Term, tuple[int, ...]] | None = None
    ) -> tuple[int, ...]:
        """The `arity`-ary term operation of `term` (over x0..x_{arity-1}),
        as a flat row-major table; see `term_tables`."""
        return self.term_tables([term], arity, memo)[0]

    def term_tables(
        self, terms: Sequence[Term], arity: int, memo: dict[Term, tuple[int, ...]] | None = None
    ) -> list[tuple[int, ...]]:
        """The `arity`-ary term operations of `terms`, in one `values` call
        per block.  `memo` maps terms to their tables at this arity and is
        filled in: with every subterm when a table fits one block, with the
        finished tables alone when it does not.  A repeated term is
        evaluated once."""
        if self.size**arity <= BLOCK:
            return self.values(terms, dict(enumerate(grid(self.size, arity))), memo)
        memo = {} if memo is None else memo
        todo = list(dict.fromkeys(t for t in terms if t not in memo))
        if todo:
            parts = [self.values(todo, c) for c in self.blocks(range(arity))]
            for i, t in enumerate(todo):
                memo[t] = tuple(v for part in parts for v in part[i])
        return [memo[t] for t in terms]

    def term_classes(
        self, arity: int, depth: int, memo: dict[Term, tuple[int, ...]] | None = None
    ) -> dict[tuple[int, ...], Term]:
        """The distinct tables of the terms over x0..x(arity-1) of depth
        <= `depth`, each mapped to its representative, the `term_key`-least
        term with that table, in representative order.  `memo` is read and
        filled in as by `term_tables`, which evaluates each layer in one call.

        Layer k+1 is built from layer k alone, with no term enumeration: a
        term of depth <= k+1 is an atom or op(t1, ..., tm) over terms of
        depth <= k, its table is op applied to theirs, and `term_key`
        compares the symbol first, then the arguments from the left.  So
        the candidates are the variables, then each symbol (by name) over
        the product of layer k's representatives; they come in `term_key`
        order, and the first with each table represents it.
        Representatives can still change once the tables stop growing, so
        exactly `depth` layers are built.
        """
        heads, memo = sorted(self.sig.ops), {} if memo is None else memo
        layer: dict[tuple[int, ...], Term] = {}
        for _ in range(depth + 1):
            reps = list(layer.values())
            terms = [Var(i) for i in range(arity)]
            terms += [App(op, args) for op, n in heads for args in itertools.product(reps, repeat=n)]
            layer = {}
            for term, table in zip(terms, self.term_tables(terms, arity, memo)):
                layer.setdefault(table, term)
        return layer

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

    def blocks(self, variables: Sequence[int]) -> Iterator[dict[int, tuple[int, ...]]]:
        """Columns for `values` that together cover every assignment to the
        given variables, in the order of `assignments`, at most BLOCK per
        block: memory stays flat and a refutation stops after the block of
        its witness.  The trailing variables vary inside a block, over the
        cached grid."""
        vs, inner = sorted(variables), 0
        while inner < len(vs) and self.size ** (inner + 1) <= BLOCK:
            inner += 1
        split = len(vs) - inner
        trailing = dict(zip(vs[split:], grid(self.size, inner)))
        for fixed in self.assignments(vs[:split]):
            yield {**{v: (a,) * self.size**inner for v, a in fixed.items()}, **trailing}


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
