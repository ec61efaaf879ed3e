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
A member's tables are found by operation: one `term_tables` call tables
that operation's images across every member, in member order.
Over a `depth(d)` preset the hyper checks list no member: they walk tuples
of per-operation table classes (`FiniteAlgebra.term_classes`), in the order
of their representatives.  A tuple's representatives form the first member
with its tables in canonical order, and the member walk first meets the
tuples in that same order, so the reported sigma and witness are unchanged.

All checks are exhaustive over assignments and monoid members -- never
sampled -- and report the lexicographically first counterexample under the
fixed orderings (variables ascending, elements in universe order, monoid
members in canonical order).  The classical check evaluates a conclusion
only at the assignments where every premise holds, and each premise only
where the earlier ones hold; those assignments stay in order, so the first
refuting one is unchanged.  Everything is pure; internal sweeps could be
parallelised as long as the first-in-order witness is the one reported.
The algebra, theory and monoid of one check must share one signature.

The flat-algebra checks hold at every term depth and are decided from one
level: zero absorption by the zero-semilattice equations themselves (each
operation absorbs zero in every position, so by induction every term
does), and basic-term preservation under a symbol renaming by the depth-1
basic terms (a renaming keeps a spine position exactly when it keeps it at
depth 1).
"""

from __future__ import annotations

import functools
import itertools
import operator
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
    one block of assignments at a time; the first refuting one is the witness.

    In each block the premises are evaluated in order, each only at the
    assignments where every earlier one holds: the columns are cut down to
    those positions, in order.  The conclusion is evaluated only where
    every premise holds.  The survivors keep the block's lexicographic
    order, so the first one whose conclusion fails is the first refuting
    assignment of the block."""
    quasi = as_quasi(item)
    vs = sorted(quasi.variables())
    for columns in algebra.blocks(vs):
        memo: dict = {}
        for eq in quasi.premises:
            lhs, rhs = algebra.values([eq.lhs, eq.rhs], columns, memo)
            if lhs != rhs:
                keep = list(map(operator.eq, lhs, rhs))
                if not any(keep):  # no survivor; a ground block's {} would read as one position
                    break
                columns, memo = {v: list(itertools.compress(c, keep)) for v, c in columns.items()}, {}
        else:
            conclusion = quasi.conclusion
            lhs, rhs = algebra.values([conclusion.lhs, conclusion.rhs], columns, memo)
            if lhs != rhs:
                k = list(map(operator.eq, lhs, rhs)).index(False)
                return CounterExample(conclusion, {v: columns[v][k] for v in vs}, lhs[k], rhs[k])
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
    which is its derived algebra's `tables`.  Keys are found by operation:
    that operation's images across the members, in member order, are
    tabled in one `term_tables` call, and the keys are the columns zipped.
    Tables are cached per arity, by term: the cache is the memo of
    `term_tables`, so each distinct image is evaluated once whichever
    operations it is the image of, and each subterm shared by images once.
    Keys are found on first use and kept across the checks of one call.

    `results` walks every member.  `distinct` visits each derived algebra
    once, with its first member; over a `depth(d)` preset it walks the
    product of the per-operation classes of `FiniteAlgebra.term_classes`
    instead (operations of one arity share one list), whose order and
    representatives are the member walk's (see the module docstring).
    """

    def __init__(self, algebra: FiniteAlgebra, monoid: Monoid):
        self.algebra = algebra
        self.monoid = monoid
        monoid.size()  # refuses an oversized preset before any table is built
        self._tables: dict[int, dict[Term, tuple[int, ...]]] = {n: {} for _, n in algebra.sig.ops}

    def _derived(self, key: tuple[tuple[int, ...], ...]) -> FiniteAlgebra:
        a = self.algebra
        return FiniteAlgebra(a.sig, a.universe, key, name=a.name)

    @functools.cached_property
    def _keys(self) -> list[tuple[tuple[int, ...], ...]]:
        """Every member's key, in canonical member order."""
        a, members = self.algebra, self.monoid.elements()
        columns = [a.term_tables([sigma.image(op) for sigma in members], n, self._tables[n]) for op, n in a.sig.ops]
        return list(zip(*columns))

    @functools.cached_property
    def _classes(self) -> dict[int, list[tuple[tuple[int, ...], Term]]]:
        """The table classes of each arity at a `depth(d)` preset's bound."""
        depth = self.monoid.params[0]
        return {n: list(self.algebra.term_classes(n, depth, memo).items()) for n, memo in self._tables.items()}

    def results(
        self, check: Callable[[FiniteAlgebra], CheckResult]
    ) -> Iterator[tuple[HyperSub, CheckResult]]:
        """(sigma, check(A^sigma)) for every member in canonical order;
        `check` runs once per distinct key."""
        verdicts: dict[tuple, CheckResult] = {}
        for sigma, key in zip(self.monoid.elements(), self._keys):
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = check(self._derived(key))
            yield sigma, verdict

    def distinct(self) -> Iterator[tuple[HyperSub, FiniteAlgebra]]:
        """(sigma, A^sigma) once per distinct derived algebra, for its first
        member, in the order the member walk first meets them."""
        a, monoid = self.algebra, self.monoid
        if monoid.kind == "depth":
            ops = a.sig.op_names
            for pairs in itertools.product(*(self._classes[n] for _, n in a.sig.ops)):
                tables, reps = zip(*pairs)
                yield HyperSub(tuple(zip(ops, reps))), self._derived(tables)
            return
        seen = set()
        for sigma, key in zip(monoid.elements(), self._keys):
            if key not in seen:
                seen.add(key)
                yield sigma, self._derived(key)


def _hyper(derived: _DerivedAlgebras, quasi: QuasiEquation) -> CheckResult:
    """The first member whose derived algebra refutes `quasi` gets the
    witness of the classical check of sigma(quasi) in the algebra itself."""
    for sigma, algebra in derived.distinct():
        if not satisfies(algebra, quasi):
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
    x, y = Var(0), Var(1)
    eqs = []
    for op, arity in sig.ops:
        others = tuple(Var(j + 2) for j in range(arity - 1))
        for i in range(arity):
            lhs, at_x, at_y = (
                App(op, (*others[:i], t, *others[i:])) for t in (App(meet, (x, y)), x, y)
            )
            eqs.append((f"compatibility {op}@{i}", Equation(lhs, App(meet, (at_x, at_y)))))
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
    table = algebra.table(meet)
    for a, b in itertools.permutations(range(algebra.size), 2):
        got = table[a * algebra.size + b]
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


def check_absorption(algebra: FiniteAlgebra, meet: str, zero: str) -> CheckResult:
    """Plugging the zero element into any variable of any term evaluates to
    zero, for every assignment of the other variables and at every depth.

    The precondition `is_zero_semilattice` decides it: its absorption
    equations say op(..., zero, ...) = zero for every operation and every
    argument position, so by induction on the term, a term with zero in
    one of its variables is zero (a variable is zero itself; an
    application has zero in some argument, which absorbs it).  A failed
    precondition is reported by name; otherwise the answer is True.
    """
    pre = is_zero_semilattice(algebra, meet, zero)
    if not pre:
        raise AlgebraError(
            f"not a zero-semilattice algebra (fails {pre.label})"
        )
    return True


# -- basic one-variable terms ------------------------------------------------


def basic_terms(sig: Signature, x: int, depth: int, pool: Sequence[int]) -> Iterator[Term]:
    """All basic terms in the distinguished variable of exactly the given
    depth: depth 0 is the variable itself; depth n wraps a depth n-1 basic
    term in one argument slot of an operation, filling the other slots with
    fresh pairwise-distinct variables from `pool`.  One term per path of
    slots, outermost first, in `itertools.product` order.

    The fresh variables are numbered in pre-order: the side arguments left
    of the spine, outermost level first, then those right of it, innermost
    level first, so terms equal up to renaming them come once.  A path
    that needs more of them than `pool` holds raises ValueError.
    """
    if x in pool:
        raise ValueError("fresh-variable pool must not contain the distinguished variable")
    slots = [(op, arity, i) for op, arity in sig.ops for i in range(arity)]
    for path in itertools.product(slots, repeat=depth):
        if sum(arity - 1 for _, arity, _ in path) > len(pool):
            raise ValueError("fresh-variable pool exhausted")
        # inside out: the innermost level's left arguments are the last
        # left ones, its right arguments the first right ones
        left = right = sum(pos for _, _, pos in path)
        term: Term = Var(x)
        for op, arity, pos in reversed(path):
            left -= pos
            end = right + arity - 1 - pos
            term = App(op, (*map(Var, pool[left : left + pos]), term, *map(Var, pool[right:end])))
            right = end
        yield term


def classify_basic(term: Term, x: int) -> int | None:
    """Independent recogniser: the depth of `term` as a basic term in the
    distinguished variable, or None.  It walks down the spine: at each
    level exactly one argument is `x` itself or an application (the next
    level), and every other one is a side variable.  Side variables are
    pairwise distinct across the whole term."""
    target, sides, depth = Var(x), [], 0
    while term != target:
        if isinstance(term, Var):
            return None
        spine = [a for a in term.args if a == target or isinstance(a, App)]
        if len(spine) != 1:
            return None
        sides += [a.index for a in term.args if a != spine[0]]
        term, depth = spine[0], depth + 1
    return depth if len(sides) == len(set(sides)) else None


def check_basic_preservation(sigma: HyperSub, sig: Signature) -> Union[bool, BasicTermFailure]:
    """Does the hypersubstitution send every basic term to a basic term of
    equal depth, at every depth?

    Requires symbol-renaming images (one symbol over a permutation of its
    variables); anything else is a precondition violation.  The depth-1
    basic terms decide it: the image g(x_p(0), ...) of op keeps op's
    argument at position i exactly when i is below g's arity, so a basic
    term of any depth keeps its spine exactly when the depth-1 term of each
    of its slots does.  The first failing depth-1 term in x0, with fresh
    variables from x1000 on, is reported: the first failure of a sweep
    upward in depth.
    """
    if not sigma.is_symbol_renaming():
        raise ValueError("preservation check requires symbol-renaming images")
    for term in basic_terms(sig, 0, 1, range(1000, 1000 + sig.max_arity())):
        mapped = sigma.apply(term)
        got = classify_basic(mapped, 0)
        if got != 1:
            return BasicTermFailure(term, mapped, 1, got)
    return True
