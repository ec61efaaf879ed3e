"""Signatures, terms, equations and variable substitutions.

Everything in this module is an immutable value with structural equality;
equality of terms is purely syntactic.  Terms are hash-consed (Filliâtre &
Conchon, *Type-safe modular hash-consing*, 2006): there is one object per
distinct term, so equality of terms is identity, which coincides with
structural equality, and hashing is O(1).  A term's depth is stored when it
is built; its variable set and `term_key` are computed once, on first use.
The intern tables live as long as the process.  All operations are pure
functions, so values can be shared freely between threads.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass, field
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
        # lookup tables, not fields: equality, hash and repr stay on `ops`
        object.__setattr__(self, "_arity", dict(self.ops))
        object.__setattr__(self, "position", {op: i for i, (op, _) in enumerate(self.ops)})
        object.__setattr__(self, "_valid", set())  # the terms `validate` accepted

    @classmethod
    def of(cls, _name: str = "", **ops: int) -> "Signature":
        return cls(tuple(ops.items()), name=_name)

    @property
    def op_names(self) -> tuple[str, ...]:
        return tuple(op for op, _ in self.ops)

    def has(self, op: str) -> bool:
        return op in self._arity

    def arity(self, op: str) -> int:
        if op not in self._arity:
            raise TermError(f"unknown operation symbol {op!r}")
        return self._arity[op]

    def max_arity(self) -> int:
        return max(n for _, n in self.ops)

    def validate(self, term: "Term") -> None:
        """Raise TermError unless `term` is well formed over this signature."""
        if term in self._valid or isinstance(term, Var):
            return
        n = self.arity(term.op)
        if len(term.args) != n:
            raise TermError(
                f"operation {term.op!r} expects {n} argument(s), got {len(term.args)}"
            )
        for arg in term.args:
            self.validate(arg)
        self._valid.add(term)


def _refuse_assignment(self, name, value=None):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_VARS: dict[int, "Var"] = {}
_APPS: dict[tuple, "App"] = {}


class Var:
    """Variable with a denumerable index, written x0, x1, ..."""

    __slots__ = ("index", "_vars", "_key")
    __match_args__ = ("index",)
    _depth = 0

    def __new__(cls, index: int) -> "Var":
        term = _VARS.get(index)
        if term is None:
            term = object.__new__(cls)
            object.__setattr__(term, "index", index)
            object.__setattr__(term, "_vars", frozenset((index,)))
            object.__setattr__(term, "_key", (0, index))
            # of two threads building one term, both get the first stored:
            # setdefault is atomic, as the key's hash and equality run no
            # Python code
            term = _VARS.setdefault(index, term)
        return term

    def __repr__(self) -> str:
        return f"Var(index={self.index!r})"

    def __reduce__(self):
        return (Var, (self.index,))

    __setattr__, __delattr__ = _refuse_assignment, _refuse_deletion


class App:
    """Operation symbol applied to argument terms (constants have no args)."""

    __slots__ = ("op", "args", "_depth", "_vars", "_key")
    __match_args__ = ("op", "args")

    def __new__(cls, op: str, args: tuple["Term", ...] = ()) -> "App":
        term = _APPS.get((op, args))
        if term is None:
            term = object.__new__(cls)
            object.__setattr__(term, "op", op)
            object.__setattr__(term, "args", args)
            object.__setattr__(term, "_depth", 1 + max([a._depth for a in args]) if args else 0)
            object.__setattr__(term, "_vars", None)
            object.__setattr__(term, "_key", None)
            term = _APPS.setdefault((op, args), term)
        return term

    def __repr__(self) -> str:
        return f"App(op={self.op!r}, args={self.args!r})"

    def __reduce__(self):
        return (App, (self.op, self.args))

    __setattr__, __delattr__ = _refuse_assignment, _refuse_deletion


Term = Union[Var, App]


def _var_set(term: Term) -> frozenset[int]:
    found = term._vars
    if found is None:
        found = frozenset().union(*map(_var_set, term.args))
        object.__setattr__(term, "_vars", found)
    return found


def variables(term: Term) -> set[int]:
    """Set of variable indices occurring in `term` (a fresh set)."""
    return set(_var_set(term))


def term_depth(term: Term) -> int:
    """Nesting depth; variables and constants are depth 0."""
    return term._depth


def subst_vars(term: Term, mapping: Mapping[int, Term]) -> Term:
    """Simultaneously replace variables of `term` according to `mapping`."""
    if isinstance(term, Var):
        return mapping.get(term.index, term)
    return App(term.op, tuple(subst_vars(a, mapping) for a in term.args))


def term_key(term: Term):
    """Total syntactic order on terms (variables before applications)."""
    key = term._key
    if key is None:
        key = (1, term.op, tuple(map(term_key, term.args)))
        object.__setattr__(term, "_key", key)
    return key


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
