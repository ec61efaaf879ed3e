"""Satisfaction relations, solidity checks, and flat-algebra machinery.

Three levels of satisfaction over one finite algebra:

  * classical: a quasi-equation holds iff every assignment satisfying all
    premises satisfies the conclusion;
  * hyper: the classical check after applying every member of a monoid of
    hypersubstitutions to the whole quasi-equation;
  * derived-algebra solidity: every derived algebra of every witness still
    models the base theory (the finite-witness reading of closure under
    the derivation operator).

Hyper checks and solidity go through the bridge A |= sigma(q) iff
A^sigma |= q, where the derived algebra A^sigma reinterprets every
operation as the term operation of its image.  Thousands of members
typically share a handful of derived algebras, so each check is decided
once per distinct derived algebra (identified by its tables) within one
call; sigma(q) is built only for the member whose witness is reported.

All checks are exhaustive over assignments and monoid members -- never
sampled -- and report the lexicographically first counterexample under the
fixed orderings (variables ascending, elements in universe order, monoid
members in canonical order).  Everything is pure; internal sweeps could be
parallelised as long as the first-in-order witness is the one reported.
The algebra, theory and monoid of one check must share one signature.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence, Union

from .algebras import AlgebraError, FiniteAlgebra
from .hypersubs import HyperSub, Monoid
from .terms import (
    App,
    Equation,
    QuasiEquation,
    Signature,
    Term,
    Var,
    as_quasi,
    iter_terms_canonical,
    subst_vars,
    variables,
)


@dataclass(frozen=True)
class Theory:
    """An ordered set of quasi-equations over one signature."""

    sig: Signature
    items: tuple[QuasiEquation, ...]
    name: str = field(default="", compare=False)

    @classmethod
    def of(cls, sig: Signature, items: Sequence[Union[Equation, QuasiEquation]], name: str = "") -> "Theory":
        return cls(sig, tuple(as_quasi(i) for i in items), name=name)

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class CounterExample:
    """A refuting witness; falsy so checks read as booleans.

    Replaying the assignment (after applying `sigma` when present)
    reproduces lhs_value != rhs_value with all premises satisfied.
    """

    failed: Equation
    assignment: dict[int, int]
    lhs_value: int
    rhs_value: int
    sigma: HyperSub | None = None
    item: int | None = None
    label: str = ""

    def __bool__(self) -> bool:
        return False


@dataclass
class SolidityFailure:
    witness: str
    sigma: HyperSub
    detail: CounterExample


@dataclass
class SolidityReport:
    """Falsy report listing every (witness, sigma) pair whose derived
    algebra breaks the base theory."""

    failures: list[SolidityFailure]

    def __bool__(self) -> bool:
        return False


@dataclass
class BasicTermFailure:
    term: Term
    mapped: Term
    expected_depth: int
    got: int | None

    def __bool__(self) -> bool:
        return False


CheckResult = Union[bool, CounterExample]


def satisfies(algebra: FiniteAlgebra, item: Union[Equation, QuasiEquation]) -> CheckResult:
    """Classical satisfaction, exhaustive over all assignments, evaluated
    one block of assignments at a time; the first refuting one is the witness."""
    quasi = as_quasi(item)
    vs = sorted(quasi.variables())
    sides = [t for eq in (*quasi.premises, quasi.conclusion) for t in (eq.lhs, eq.rhs)]
    for columns in algebra.blocks(vs):
        *premises, lhs, rhs = algebra.values(sides, columns)
        pairs = list(zip(premises[::2], premises[1::2]))
        for k, (left, right) in enumerate(zip(lhs, rhs)):
            if left != right and all(p[k] == q[k] for p, q in pairs):
                return CounterExample(quasi.conclusion, {v: columns[v][k] for v in vs}, left, right)
    return True


def satisfies_theory(algebra: FiniteAlgebra, theory: Theory) -> CheckResult:
    for i, item in enumerate(theory.items):
        result = satisfies(algebra, item)
        if not result:
            result.item = i
            return result
    return True


def require_one_signature(first: tuple[str, Signature], *others: tuple[str, Signature]) -> None:
    """Raise AlgebraError, naming both, unless every (description,
    signature) pair is over the first pair's signature."""
    what, sig = first
    for other, other_sig in others:
        if other_sig != sig:
            raise AlgebraError(
                f"signature mismatch: {what} is over {_sig_name(sig)}, "
                f"{other} is over {_sig_name(other_sig)}"
            )


def _sig_name(sig: Signature) -> str:
    return sig.name or "{ " + " ".join(f"{op}/{n};" for op, n in sig.ops) + " }"


def _named(kind: str, obj) -> str:
    return f"{kind} {obj.name or '<unnamed>'}"


class _DerivedAlgebras:
    """The derived algebras of one algebra under the members of one monoid,
    shared by the checks of one call.

    A member's key is the tuple of its derived tables in signature order,
    which is its derived algebra's `tables`.  Tables are cached per
    operation by image, so each table is computed once per distinct image,
    and keys are kept across the checks of one call.  Each check runs once
    per distinct key, so thousands of members sharing a handful of derived
    algebras cost a handful of checks.
    """

    def __init__(self, algebra: FiniteAlgebra, monoid: Monoid):
        self.algebra = algebra
        self.sigmas = monoid.elements()
        self._tables: list[dict[Term, tuple[int, ...]]] = [{} for _ in algebra.sig.ops]
        self._keys: list[tuple[tuple[int, ...], ...]] = []

    def results(
        self, check: Callable[[FiniteAlgebra], CheckResult]
    ) -> Iterator[tuple[HyperSub, CheckResult]]:
        """(sigma, check(A^sigma)) in canonical order; keys are computed on
        first visit and `check` runs once per distinct key."""
        a, keys = self.algebra, self._keys
        ops = list(zip(a.sig.ops, self._tables))
        verdicts: dict[tuple, CheckResult] = {}
        for n, sigma in enumerate(self.sigmas):
            if n == len(keys):
                key = []
                for (op, arity), tables in ops:
                    img = sigma.image(op)
                    table = tables.get(img)
                    if table is None:
                        table = tables[img] = a.term_table(img, arity)
                    key.append(table)
                keys.append(tuple(key))
            key = keys[n]
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = check(FiniteAlgebra(a.sig, a.universe, key, name=a.name))
            yield sigma, verdict


def _hyper(derived: _DerivedAlgebras, quasi: QuasiEquation) -> CheckResult:
    """The first member whose derived algebra refutes `quasi` gets the
    witness of the classical check of sigma(quasi) in the algebra itself."""
    for sigma, ok in derived.results(lambda d: bool(satisfies(d, quasi))):
        if not ok:
            result = satisfies(derived.algebra, sigma.apply_quasi(quasi))
            result.sigma = sigma
            return result
    return True


def hyper_satisfies(
    algebra: FiniteAlgebra, item: Union[Equation, QuasiEquation], monoid: Monoid
) -> CheckResult:
    """Classical satisfaction of sigma(item) for every monoid member.

    Decided through the bridge A |= sigma(q) iff A^sigma |= q: one classical
    check per distinct derived algebra A^sigma.  sigma(q) is built only for
    the first refuting member, and the witness is that of the classical
    check of sigma(q) in A, so the assignment ranges over the variables of
    sigma(q).
    """
    require_one_signature(
        (_named("algebra", algebra), algebra.sig), (_named("monoid", monoid), monoid.sig)
    )
    return _hyper(_DerivedAlgebras(algebra, monoid), as_quasi(item))


def hyper_satisfies_theory(algebra: FiniteAlgebra, theory: Theory, monoid: Monoid) -> CheckResult:
    """Conjunction over the theory; the first failure (item-major) wins.
    The derived tables are shared across the items."""
    require_one_signature(
        (_named("algebra", algebra), algebra.sig),
        (_named("theory", theory), theory.sig),
        (_named("monoid", monoid), monoid.sig),
    )
    derived = _DerivedAlgebras(algebra, monoid)
    for i, item in enumerate(theory.items):
        result = _hyper(derived, item)
        if not result:
            result.item = i
            return result
    return True


def check_solidity(
    bases: Theory,
    witnesses: Sequence[FiniteAlgebra],
    monoid: Monoid,
) -> Union[bool, SolidityReport]:
    """Do all derived algebras of all witnesses still model the bases?

    Every witness must model the bases classically to begin with; a witness
    that does not is a precondition violation, reported by name.  The bases
    are checked once per distinct derived algebra of each witness; every
    failing (witness, sigma) pair, in witness order then canonical member
    order, gets its own copy of that algebra's counterexample.
    """
    require_one_signature(
        (_named("theory", bases), bases.sig),
        *((_named("witness", w), w.sig) for w in witnesses),
        (_named("monoid", monoid), monoid.sig),
    )
    for w in witnesses:
        pre = satisfies_theory(w, bases)
        if not pre:
            raise AlgebraError(
                f"witness {w.name or '<unnamed>'} does not model the base theory"
            )
    failures: list[SolidityFailure] = []
    for w in witnesses:
        derived = _DerivedAlgebras(w, monoid)
        for sigma, result in derived.results(lambda d: satisfies_theory(d, bases)):
            if not result:
                detail = replace(result, assignment=dict(result.assignment))
                failures.append(SolidityFailure(w.name or "<unnamed>", sigma, detail))
    if failures:
        return SolidityReport(failures)
    return True


# -- zero-semilattice / flat algebra checks ---------------------------------


def zero_semilattice_equations(sig: Signature, meet: str, zero: str) -> list[tuple[str, Equation]]:
    """The defining equations: meet is associative, commutative, idempotent,
    and the zero constant absorbs every argument position of every
    operation."""
    x, y, z = Var(0), Var(1), Var(2)
    mk = lambda a, b: App(meet, (a, b))
    zero_t = App(zero)
    eqs = [
        ("meet-associativity", Equation(mk(x, mk(y, z)), mk(mk(x, y), z))),
        ("meet-commutativity", Equation(mk(x, y), mk(y, x))),
        ("meet-idempotence", Equation(mk(x, x), x)),
    ]
    for op, arity in sig.ops:
        for i in range(arity):
            args = tuple(
                zero_t if j == i else Var(j if j < i else j - 1)
                for j in range(arity)
            )
            eqs.append((f"absorption {op}@{i}", Equation(App(op, args), zero_t)))
    return eqs


def compatibility_equations(sig: Signature, meet: str, zero: str) -> list[tuple[str, Equation]]:
    """Every operation distributes over meet in every argument position."""
    eqs = []
    for op, arity in sig.ops:
        for i in range(arity):
            others = [Var(j + 2) for j in range(arity - 1)]
            def plug(t: Term) -> Term:
                picked = list(others)
                picked.insert(i, t)
                return App(op, tuple(picked))
            x, y = Var(0), Var(1)
            lhs = plug(App(meet, (x, y)))
            rhs = App(meet, (plug(x), plug(y)))
            eqs.append((f"compatibility {op}@{i}", Equation(lhs, rhs)))
    return eqs


def _check_labelled(algebra: FiniteAlgebra, eqs: list[tuple[str, Equation]]) -> CheckResult:
    for label, eq in eqs:
        result = satisfies(algebra, eq)
        if not result:
            result.label = label
            return result
    return True


def is_zero_semilattice(algebra: FiniteAlgebra, meet: str, zero: str) -> CheckResult:
    return _check_labelled(
        algebra, zero_semilattice_equations(algebra.sig, meet, zero)
    )


def is_flat(algebra: FiniteAlgebra, meet: str, zero: str) -> CheckResult:
    """Meets of distinct elements collapse to zero.

    Only the distinct-pair condition is checked here; full flatness is this
    plus `is_zero_semilattice`.
    """
    zero_idx = algebra.table(zero)[0]
    for a in range(algebra.size):
        for b in range(algebra.size):
            if a == b:
                continue
            got = algebra.table(meet)[a * algebra.size + b]
            if got != zero_idx:
                return CounterExample(
                    Equation(App(meet, (Var(0), Var(1))), App(zero)),
                    {0: a, 1: b},
                    got,
                    zero_idx,
                    label="flatness",
                )
    return True


def is_compatible(algebra: FiniteAlgebra, meet: str, zero: str) -> CheckResult:
    return _check_labelled(
        algebra, compatibility_equations(algebra.sig, meet, zero)
    )


def check_absorption(
    algebra: FiniteAlgebra, meet: str, zero: str, depth_max: int
) -> CheckResult:
    """Plugging the zero element into any variable of any non-variable term
    must evaluate to zero, for every assignment of the other variables.

    Terms are enumerated canonically up to renaming; variable-free terms
    have no position to plug and are vacuous.
    """
    pre = is_zero_semilattice(algebra, meet, zero)
    if not pre:
        raise AlgebraError(
            f"not a zero-semilattice algebra (fails {pre.label})"
        )
    zero_idx = algebra.table(zero)[0]
    max_vars = algebra.sig.max_arity() ** max(depth_max, 1)
    for term in iter_terms_canonical(algebra.sig, depth_max, max_vars):
        for plugged in sorted(variables(term)):
            result = satisfies(algebra, Equation(subst_vars(term, {plugged: App(zero)}), App(zero)))
            if not result:
                result.assignment[plugged] = zero_idx
                result.failed = Equation(term, App(zero))
                result.label = f"zero-absorption x{plugged}"
                return result
    return True


# -- basic one-variable terms ------------------------------------------------


def basic_terms(
    sig: Signature, x: int, depth: int, pool: Sequence[int]
) -> Iterator[Term]:
    """All basic terms in the distinguished variable of exactly the given
    depth: depth 0 is the variable itself; depth n wraps a depth n-1 basic
    term in one argument slot of an operation, filling the other slots with
    fresh pairwise-distinct variables drawn from `pool` in pre-order.

    Two such terms equal up to renaming of the fresh variables are produced
    once, in the canonical pool naming.
    """
    if x in pool:
        raise ValueError("fresh-variable pool must not contain the distinguished variable")
    slots = [
        (op, arity, i)
        for op, arity in sig.ops
        if arity >= 1
        for i in range(arity)
    ]

    def build(levels: tuple[tuple[str, int, int], ...]) -> Term:
        counter = 0

        def go(rest: tuple[tuple[str, int, int], ...]) -> Term:
            nonlocal counter
            if not rest:
                return Var(x)
            op, arity, pos = rest[0]
            args: list[Term] = []
            for j in range(arity):
                if j == pos:
                    args.append(go(rest[1:]))
                else:
                    if counter >= len(pool):
                        raise ValueError("fresh-variable pool exhausted")
                    args.append(Var(pool[counter]))
                    counter += 1
            return App(op, tuple(args))

        return go(levels)

    if depth == 0:
        yield Var(x)
        return
    for combo in itertools.product(slots, repeat=depth):
        yield build(combo)


def classify_basic(term: Term, x: int) -> int | None:
    """Independent recogniser: the depth of `term` as a basic term in the
    distinguished variable, or None.  Side variables must differ from the
    distinguished one and be pairwise distinct across the whole term."""
    side: list[int] = []

    def walk(t: Term) -> int | None:
        if t == Var(x):
            return 0
        if isinstance(t, Var) or not t.args:
            return None
        spine = [i for i, a in enumerate(t.args) if x in variables(a)]
        if len(spine) != 1:
            return None
        inner = None
        for i, a in enumerate(t.args):
            if i == spine[0]:
                inner = walk(a)
                if inner is None:
                    return None
            else:
                if not isinstance(a, Var) or a.index == x:
                    return None
                side.append(a.index)
        return 1 + inner

    d = walk(term)
    if d is None:
        return None
    if len(side) != len(set(side)):
        return None
    return d


def check_basic_preservation(
    sigma: HyperSub, sig: Signature, depth_max: int, x: int = 0, pool: Sequence[int] | None = None
) -> Union[bool, BasicTermFailure]:
    """Does the hypersubstitution send every basic term of depth <= depth_max
    to a basic term of equal depth?

    Requires symbol-renaming images (one symbol over a permutation of its
    variables); anything else is a precondition violation.
    """
    if not sigma.is_symbol_renaming():
        raise ValueError(
            "preservation check requires symbol-renaming images"
        )
    if pool is None:
        pool = range(1000, 1000 + sig.max_arity() * max(depth_max, 1))
    for depth in range(depth_max + 1):
        for term in basic_terms(sig, x, depth, pool):
            mapped = sigma.apply(term)
            got = classify_basic(mapped, x)
            if got != depth:
                return BasicTermFailure(term, mapped, depth, got)
    return True
