"""Signatures, terms, equations and variable substitutions.

Everything in this module is an immutable value with structural equality;
equality of terms is purely syntactic.  All operations are pure functions,
so values can be shared freely between threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Union


class TermError(ValueError):
    """Raised for structurally invalid terms, signatures or substitutions."""


@dataclass(frozen=True)
class Signature:
    """Ordered operation symbols with their arities."""

    ops: tuple[tuple[str, int], ...]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.ops:
            raise TermError("a signature needs at least one operation symbol")
        seen: set[str] = set()
        for op, arity in self.ops:
            if op in seen:
                raise TermError(f"duplicate operation symbol {op!r}")
            if arity < 0:
                raise TermError(f"operation {op!r} has negative arity")
            seen.add(op)

    @classmethod
    def of(cls, _name: str = "", **ops: int) -> "Signature":
        return cls(tuple(ops.items()), name=_name)

    @property
    def op_names(self) -> tuple[str, ...]:
        return tuple(op for op, _ in self.ops)

    def has(self, op: str) -> bool:
        return any(op == o for o, _ in self.ops)

    def arity(self, op: str) -> int:
        for o, n in self.ops:
            if o == op:
                return n
        raise TermError(f"unknown operation symbol {op!r}")

    def max_arity(self) -> int:
        return max(n for _, n in self.ops)

    def validate(self, term: "Term") -> None:
        """Raise TermError unless `term` is well formed over this signature."""
        if isinstance(term, Var):
            return
        if not self.has(term.op):
            raise TermError(f"unknown operation symbol {term.op!r}")
        n = self.arity(term.op)
        if len(term.args) != n:
            raise TermError(
                f"operation {term.op!r} expects {n} argument(s), got {len(term.args)}"
            )
        for arg in term.args:
            self.validate(arg)


@dataclass(frozen=True)
class Var:
    """Variable with a denumerable index, written x0, x1, ..."""

    index: int


@dataclass(frozen=True)
class App:
    """Operation symbol applied to argument terms (constants have no args)."""

    op: str
    args: tuple["Term", ...] = ()


Term = Union[Var, App]


def variables(term: Term) -> set[int]:
    """Set of variable indices occurring in `term`."""
    if isinstance(term, Var):
        return {term.index}
    out: set[int] = set()
    for arg in term.args:
        out |= variables(arg)
    return out


def term_depth(term: Term) -> int:
    """Nesting depth; variables and constants are depth 0."""
    if isinstance(term, Var) or not term.args:
        return 0
    return 1 + max(term_depth(a) for a in term.args)


def term_size(term: Term) -> int:
    if isinstance(term, Var):
        return 1
    return 1 + sum(term_size(a) for a in term.args)


def subst_vars(term: Term, mapping: Mapping[int, Term]) -> Term:
    """Simultaneously replace variables of `term` according to `mapping`."""
    if isinstance(term, Var):
        return mapping.get(term.index, term)
    return App(term.op, tuple(subst_vars(a, mapping) for a in term.args))


def term_key(term: Term):
    """Total syntactic order on terms (variables before applications)."""
    if isinstance(term, Var):
        return (0, term.index)
    return (1, term.op, tuple(term_key(a) for a in term.args))


def format_term(term: Term) -> str:
    """Canonical rendering: `f(t1, t2)`, bare names for constants."""
    if isinstance(term, Var):
        return f"x{term.index}"
    if not term.args:
        return term.op
    return f"{term.op}({', '.join(format_term(a) for a in term.args)})"


@dataclass(frozen=True)
class Substitution:
    """Finite map from variable indices to terms; unbound variables are fixed.

    Bindings are canonicalised on construction: sorted by index, identity
    entries dropped.
    """

    bindings: tuple[tuple[int, Term], ...] = ()

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for i, _ in self.bindings:
            if i in seen:
                raise TermError(f"variable x{i} bound twice")
            seen.add(i)
        canon = tuple(
            sorted((i, t) for i, t in self.bindings if t != Var(i))
        )
        object.__setattr__(self, "bindings", canon)

    @classmethod
    def of(cls, mapping: Mapping[int, Term]) -> "Substitution":
        return cls(tuple(mapping.items()))

    @classmethod
    def identity(cls) -> "Substitution":
        return cls(())

    def as_dict(self) -> dict[int, Term]:
        return dict(self.bindings)

    def apply(self, term: Term) -> Term:
        return subst_vars(term, self.as_dict())

    def compose(self, inner: "Substitution") -> "Substitution":
        """`self` after `inner`: result.apply(t) == self.apply(inner.apply(t))."""
        out: dict[int, Term] = {}
        for i, t in inner.bindings:
            out[i] = self.apply(t)
        for i, t in self.bindings:
            if i not in out:
                out[i] = t
        return Substitution.of(out)


@dataclass(frozen=True)
class Equation:
    """An identity `lhs = rhs` between two terms over one signature."""

    lhs: Term
    rhs: Term

    def map_terms(self, f) -> "Equation":
        return Equation(f(self.lhs), f(self.rhs))

    def variables(self) -> set[int]:
        return variables(self.lhs) | variables(self.rhs)

    def __str__(self) -> str:
        return f"{format_term(self.lhs)} = {format_term(self.rhs)}"


@dataclass(frozen=True)
class QuasiEquation:
    """A Horn implication: premises jointly imply the conclusion.

    Premises are kept as an ordered list with duplicates removed on
    construction; comparisons of derivations treat them as a set.  An
    equation embeds as a quasi-equation with no premises.
    """

    premises: tuple[Equation, ...]
    conclusion: Equation

    def __post_init__(self) -> None:
        seen: list[Equation] = []
        for p in self.premises:
            if p not in seen:
                seen.append(p)
        object.__setattr__(self, "premises", tuple(seen))

    @classmethod
    def fact(cls, eq: Equation) -> "QuasiEquation":
        return cls((), eq)

    def variables(self) -> set[int]:
        out = self.conclusion.variables()
        for p in self.premises:
            out |= p.variables()
        return out

    def map_terms(self, f) -> "QuasiEquation":
        return QuasiEquation(
            tuple(p.map_terms(f) for p in self.premises),
            self.conclusion.map_terms(f),
        )

    def key(self):
        """Order-insensitive identity used for dedup and rule comparison."""
        return (frozenset(self.premises), self.conclusion)

    def set_eq(self, other: "QuasiEquation") -> bool:
        return self.key() == other.key()

    def __str__(self) -> str:
        if not self.premises:
            return str(self.conclusion)
        left = ", ".join(str(p) for p in self.premises)
        return f"{left} => {self.conclusion}"


def as_quasi(item: Union[Equation, QuasiEquation]) -> QuasiEquation:
    if isinstance(item, Equation):
        return QuasiEquation.fact(item)
    return item


def iter_terms(sig: Signature, n_vars: int, max_depth: int) -> list[Term]:
    """All terms over variables x0..x_{n_vars-1} with depth <= max_depth.

    Deterministic order: atoms first (variables, then constants in signature
    order), then applications layered by depth.
    """
    atoms: list[Term] = [Var(i) for i in range(n_vars)]
    atoms += [App(op) for op, n in sig.ops if n == 0]
    layer = list(atoms)
    for _ in range(max_depth):
        nxt = list(atoms)
        for op, n in sig.ops:
            if n == 0:
                continue
            for args in itertools.product(layer, repeat=n):
                nxt.append(App(op, args))
        layer = nxt
    return layer


def iter_terms_canonical(sig: Signature, max_depth: int, max_vars: int) -> list[Term]:
    """Terms up to renaming: distinct variables appear as x0, x1, ... in
    first-occurrence order.  At most `max_vars` distinct variables."""

    def grow(depth: int, used: int) -> list[tuple[Term, int]]:
        out: list[tuple[Term, int]] = []
        for i in range(min(used + 1, max_vars)):
            out.append((Var(i), max(used, i + 1)))
        for op, n in sig.ops:
            if n == 0:
                out.append((App(op), used))
            elif depth > 0:
                partial: list[tuple[tuple[Term, ...], int]] = [((), used)]
                for _ in range(n):
                    partial = [
                        (args + (t,), u2)
                        for args, u in partial
                        for t, u2 in grow(depth - 1, u)
                    ]
                for args, _u in partial:
                    if max(term_depth(a) for a in args) == depth - 1:
                        out.append((App(op, args), _u))
        return out

    seen: set[Term] = set()
    result: list[Term] = []
    for d in range(max_depth + 1):
        for t, _ in grow(d, 0):
            if term_depth(t) == d and t not in seen:
                seen.add(t)
                result.append(t)
    return result
