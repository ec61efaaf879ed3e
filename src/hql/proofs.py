"""Proof objects and checking for quasi-equational calculi.

Three calculi over one signature, differing only in how far the
hypersubstitution rule reaches:

  Q    -- equality axioms (reflexivity, symmetry, transitivity,
          compatibility), the substitution rule, the cut rule and the
          extension rule; no hypersubstitution steps at all.
  HQ   -- Q plus hypersubstitution by any well-formed hypersubstitution.
  MHQ  -- Q plus hypersubstitution restricted to members of a fixed monoid.

Modus ponens is checked as a cut whose minor premise list is empty, and an
equation is treated throughout as a quasi-equation with no premises.
Generalised compatibility (one arbitrary term in place of an operation
symbol) is admitted both as a primitive justification and as a pure-Q
derivation produced by `derive_term_compat`.

A proof is a list of lines, each a stated quasi-equation plus the
justification that produces it.  Lines may only reference earlier lines,
premise lists are compared as sets, and everything is immutable; checking
is a single forward pass.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Sequence, Union

from .hypersubs import HyperSub, Monoid
from .semantics import Theory, _named, require_one_signature
from .terms import (
    App,
    Equation,
    QuasiEquation,
    Signature,
    Substitution,
    Term,
    Var,
    iter_terms,
    subst_vars,
    term_depth,
    variables,
)


class ProofError(Exception):
    """A proof line that does not check; carries the offending line index."""

    def __init__(self, line: int | None, reason: str):
        self.line = line
        self.reason = reason
        at = f"line {line + 1}: " if line is not None else ""
        super().__init__(f"{at}{reason}")


# -- justifications ----------------------------------------------------------


@dataclass(frozen=True)
class Hyp:
    index: int


@dataclass(frozen=True)
class Refl:
    term: Term


@dataclass(frozen=True)
class Sym:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Trans:
    a: Term
    b: Term
    c: Term


@dataclass(frozen=True)
class Compat:
    op: str
    lhs_args: tuple[Term, ...]
    rhs_args: tuple[Term, ...]


@dataclass(frozen=True)
class TermCompat:
    """Generalised compatibility: an arbitrary pattern term over x0..x_{n-1}
    in place of a single operation symbol."""

    pattern: Term
    lhs_args: tuple[Term, ...]
    rhs_args: tuple[Term, ...]


@dataclass(frozen=True)
class Subst:
    line: int
    delta: Substitution


@dataclass(frozen=True)
class Cut:
    major: int
    minor: int


@dataclass(frozen=True)
class Ext:
    line: int
    added: Equation


@dataclass(frozen=True)
class HypSub:
    line: int
    sigma: HyperSub


@dataclass(frozen=True)
class Mp:
    fact: int
    implication: int


Justification = Union[
    Hyp, Refl, Sym, Trans, Compat, TermCompat, Subst, Cut, Ext, HypSub, Mp
]

# Rule class -> the names of its fields that hold earlier line numbers, in
# text order; a rule not listed refers to no earlier line.
LINE_REFS: dict[type, tuple[str, ...]] = {
    Subst: ("line",),
    Cut: ("major", "minor"),
    Ext: ("line",),
    HypSub: ("line",),
    Mp: ("fact", "implication"),
}


def line_refs(j: Justification) -> list[int]:
    """The earlier lines `j` refers to, in text order."""
    return [getattr(j, name) for name in LINE_REFS.get(type(j), ())]


def with_line_refs(j: Justification, lines: Sequence[int]) -> Justification:
    """`j` referring to `lines` (in text order) in place of its own."""
    return dataclasses.replace(j, **dict(zip(LINE_REFS.get(type(j), ()), lines)))


@dataclass(frozen=True)
class Logic:
    kind: str  # "Q" | "HQ" | "MHQ"
    monoid: Monoid | None = None

    @classmethod
    def q(cls) -> "Logic":
        return cls("Q")

    @classmethod
    def hq(cls) -> "Logic":
        return cls("HQ")

    @classmethod
    def mhq(cls, monoid: Monoid) -> "Logic":
        return cls("MHQ", monoid)

    def admits(self, sigma: HyperSub) -> bool:
        if self.kind == "Q":
            return False
        if self.kind == "HQ":
            return True
        return self.monoid is not None and self.monoid.contains(sigma)


@dataclass(frozen=True)
class Proof:
    theory: Theory
    logic: Logic
    lines: tuple[tuple[QuasiEquation, Justification], ...]
    name: str = field(default="", compare=False)

    @property
    def sig(self) -> Signature:
        return self.theory.sig

    def conclusion(self) -> QuasiEquation:
        if not self.lines:
            raise ProofError(None, "empty proof has no conclusion")
        return self.lines[-1][0]


def _instantiate(pattern: Term, args: Sequence[Term]) -> Term:
    return subst_vars(pattern, dict(enumerate(args)))


def produced_statement(
    j: Justification,
    stated: Sequence[QuasiEquation],
    theory: Theory,
    logic: Logic,
    lineno: int,
) -> QuasiEquation:
    """What the justification proves, given the earlier stated lines.

    Raises ProofError for schema violations, bad references, or a
    hypersubstitution outside the calculus.
    """
    sig = theory.sig

    def check_term(t: Term) -> Term:
        sig.validate(t)
        return t

    refs: list[QuasiEquation] = []  # the referenced lines, in text order
    for k in line_refs(j):
        if not 0 <= k < lineno:
            raise ProofError(lineno, f"reference to line {k + 1} is not an earlier line")
        refs.append(stated[k])

    if isinstance(j, Hyp):
        if not 0 <= j.index < len(theory.items):
            raise ProofError(lineno, f"hypothesis index {j.index} out of range")
        return theory.items[j.index]

    if isinstance(j, Refl):
        eq = Equation(check_term(j.term), j.term)
        return QuasiEquation((eq,), eq)

    if isinstance(j, Sym):
        check_term(j.lhs), check_term(j.rhs)
        return QuasiEquation(
            (Equation(j.lhs, j.rhs),), Equation(j.rhs, j.lhs)
        )

    if isinstance(j, Trans):
        for t in (j.a, j.b, j.c):
            check_term(t)
        return QuasiEquation(
            (Equation(j.a, j.b), Equation(j.b, j.c)), Equation(j.a, j.c)
        )

    if isinstance(j, (Compat, TermCompat)):
        # compatibility is generalised compatibility for the pattern op(x0, ...)
        if isinstance(j, Compat):
            if not sig.has(j.op):
                raise ProofError(lineno, f"unknown operation symbol {j.op!r}")
            n = sig.arity(j.op)
            if len(j.lhs_args) != n or len(j.rhs_args) != n:
                raise ProofError(lineno, f"compatibility for {j.op!r} needs {n} argument pair(s)")
            pattern = App(j.op, tuple(Var(i) for i in range(n)))
        else:
            if len(j.lhs_args) != len(j.rhs_args):
                raise ProofError(lineno, "generalised compatibility needs equally many argument terms")
            n = len(j.lhs_args)
            pattern = check_term(j.pattern)
            if any(v >= n for v in variables(pattern)):
                raise ProofError(lineno, f"pattern uses variables beyond x{n - 1}")
        for t in (*j.lhs_args, *j.rhs_args):
            check_term(t)
        premises = tuple(Equation(a, b) for a, b in zip(j.lhs_args, j.rhs_args))
        return QuasiEquation(
            premises,
            Equation(_instantiate(pattern, j.lhs_args), _instantiate(pattern, j.rhs_args)),
        )

    if isinstance(j, Subst):
        for _, t in j.delta.bindings:
            check_term(t)
        return refs[0].map_terms(j.delta.apply)

    if isinstance(j, (Cut, Mp)):
        # modus ponens is a cut whose minor premise (the fact) has no premises
        major, minor = refs if isinstance(j, Cut) else refs[::-1]
        if isinstance(j, Mp) and minor.premises:
            raise ProofError(lineno, "modus ponens: the fact line must have no premises")
        alpha = minor.conclusion
        if alpha not in major.premises:
            raise ProofError(
                lineno,
                "cut: minor conclusion does not occur among major premises"
                if isinstance(j, Cut)
                else "modus ponens: fact does not occur among the implication premises",
            )
        kept = tuple(p for p in major.premises if p != alpha)
        return QuasiEquation(minor.premises + kept, major.conclusion)

    if isinstance(j, Ext):
        check_term(j.added.lhs), check_term(j.added.rhs)
        return QuasiEquation((j.added,) + refs[0].premises, refs[0].conclusion)

    if isinstance(j, HypSub):
        if set(op for op, _ in j.sigma.images) != set(sig.op_names):
            raise ProofError(lineno, "hypersubstitution is not over the proof signature")
        for _, img in j.sigma.images:
            check_term(img)
        if not logic.admits(j.sigma):
            if logic.kind == "Q":
                raise ProofError(lineno, "hypersubstitution steps are not part of the plain calculus")
            raise ProofError(lineno, "hypersubstitution is not a member of the proof monoid")
        return j.sigma.apply_quasi(refs[0])

    raise ProofError(lineno, f"unknown justification {type(j).__name__}")


def check_proof(proof: Proof) -> None:
    """Single forward pass; raises ProofError at the first bad line."""
    stated = [q for q, _ in proof.lines]
    for i, (quasi, j) in enumerate(proof.lines):
        for p in (*quasi.premises, quasi.conclusion):
            proof.sig.validate(p.lhs)
            proof.sig.validate(p.rhs)
        produced = produced_statement(j, stated, proof.theory, proof.logic, i)
        if not produced.set_eq(quasi):
            raise ProofError(i, "stated quasi-equation does not match the rule result")


def is_valid(proof: Proof) -> bool:
    try:
        check_proof(proof)
        return True
    except ProofError:
        return False


# -- hyperclosure -------------------------------------------------------------


def hyperclose_detailed(
    theory: Theory, monoid: Monoid
) -> list[tuple[QuasiEquation, int, HyperSub]]:
    """Every image of a theory item under a monoid member, duplicate-free,
    with its provenance; ordered item-major, members in canonical order."""
    require_one_signature((_named("theory", theory), theory.sig), (_named("monoid", monoid), monoid.sig))
    seen: set = set()
    out: list[tuple[QuasiEquation, int, HyperSub]] = []
    for i, item in enumerate(theory.items):
        for sigma in monoid.elements():
            mapped = sigma.apply_quasi(item)
            if mapped.key() not in seen:
                seen.add(mapped.key())
                out.append((mapped, i, sigma))
    return out


def hyperclose(theory: Theory, monoid: Monoid) -> Theory:
    items = tuple(q for q, _, _ in hyperclose_detailed(theory, monoid))
    return Theory(theory.sig, items, name=theory.name)


# -- proof construction -------------------------------------------------------


class ProofBuilder:
    """Appends justification nodes, computing (and thus guaranteeing) each
    stated line via the same engine the checker uses.  Identical lines are
    emitted once."""

    def __init__(self, theory: Theory, logic: Logic):
        self.theory = theory
        self.logic = logic
        self._lines: list[tuple[QuasiEquation, Justification]] = []
        self._stated: list[QuasiEquation] = []
        self._index: dict = {}

    def add(self, j: Justification) -> int:
        quasi = produced_statement(j, self._stated, self.theory, self.logic, len(self._stated))
        key = (quasi.key(), j)
        if key in self._index:
            return self._index[key]
        self._lines.append((quasi, j))
        self._stated.append(quasi)
        idx = len(self._lines) - 1
        self._index[key] = idx
        return idx

    def statement(self, line: int) -> QuasiEquation:
        return self._lines[line][0]

    def proof(self, name: str = "") -> Proof:
        return Proof(self.theory, self.logic, tuple(self._lines), name=name)


def _emit_term_compat(
    builder: ProofBuilder,
    pattern: Term,
    lhs_args: tuple[Term, ...],
    rhs_args: tuple[Term, ...],
) -> int:
    """Derive generalised compatibility in the plain calculus by structural
    induction on the pattern.

    Every emitted node carries the full premise set {t_i = s_i}.  A variable
    pattern is proved by two symmetry axioms joined with a cut; an
    application pattern combines one compatibility axiom with cuts against
    the recursively derived argument lines.  Line count is bounded by
    2*size(pattern) + len(lhs_args) + 3.
    """
    full = tuple(Equation(a, b) for a, b in zip(lhs_args, rhs_args))

    def pad_to_full(line: int) -> int:
        have = set(builder.statement(line).premises)
        for eq in full:
            if eq not in have:
                line = builder.add(Ext(line, eq))
                have.add(eq)
        return line

    def go(p: Term) -> int:
        if isinstance(p, Var):
            t, s = lhs_args[p.index], rhs_args[p.index]
            fwd = builder.add(Sym(t, s))
            back = builder.add(Sym(s, t))
            return pad_to_full(builder.add(Cut(major=back, minor=fwd)))
        inst_l = tuple(_instantiate(a, lhs_args) for a in p.args)
        inst_r = tuple(_instantiate(a, rhs_args) for a in p.args)
        line = builder.add(Compat(p.op, inst_l, inst_r))
        for child, a, b in zip(p.args, inst_l, inst_r):
            alpha = Equation(a, b)
            if alpha not in builder.statement(line).premises:
                continue  # already discharged (duplicate argument pair)
            if alpha in full:
                continue  # the target premise set supplies it directly
            minor = go(child)
            line = builder.add(Cut(major=line, minor=minor))
        return pad_to_full(line)

    return go(pattern)


def derive_term_compat(
    pattern: Term,
    lhs_args: Sequence[Term],
    rhs_args: Sequence[Term],
    theory: Theory,
) -> Proof:
    """A plain-calculus proof of generalised compatibility for `pattern`."""
    if len(lhs_args) != len(rhs_args):
        raise ProofError(None, "argument lists must have equal length")
    n = len(lhs_args)
    if any(v >= n for v in variables(pattern)):
        raise ProofError(None, f"pattern uses variables beyond x{n - 1}")
    builder = ProofBuilder(theory, Logic.q())
    _emit_term_compat(builder, pattern, tuple(lhs_args), tuple(rhs_args))
    return builder.proof()


# -- normalisation ------------------------------------------------------------


def normalize(proof: Proof, expand_compat: bool = False) -> Proof:
    """Push every hypersubstitution step up to a hypothesis leaf.

    The output proves the same conclusion from the same theory, every
    hypersubstitution step sits directly on a hypothesis line, and checking
    succeeds by construction.  Rewrites are the rule commutations: through a
    substitution (the composed variable substitution takes over), through
    cut / extension / modus ponens branch-wise, axioms turn into fresh
    instances on the mapped terms (compatibility becomes generalised
    compatibility on the image pattern, expanded into plain steps when
    `expand_compat` is set), and stacked hypersubstitutions merge by
    composition -- which must stay inside the proof monoid.

    Each rewrite strictly shortens the distance from a hypersubstitution
    step to the leaves, so the walk terminates; memoisation keeps one
    output line per (input line, pending map) pair.  The walk keeps its own
    stack, so a proof may be any number of lines deep, and emits in post
    order: premises first (cut major before minor, modus ponens fact before
    implication), each pair once.
    """
    check_proof(proof)
    builder = ProofBuilder(proof.theory, proof.logic)
    memo: dict[tuple[int, HyperSub | None], int] = {}

    def node(i: int, pending: HyperSub | None) -> tuple[int, HyperSub | None]:
        if pending is not None and pending.is_identity():
            pending = None
        return (i, pending)

    def premises(i: int, j, pending) -> list[tuple[int, HyperSub | None]]:
        """The (line, pending map) pairs line i's output is built from."""
        if isinstance(j, HypSub):
            composite = j.sigma if pending is None else pending.compose(j.sigma)
            if not proof.logic.admits(composite):
                raise ProofError(
                    i, "composite hypersubstitution escapes the proof monoid"
                )
            return [node(j.line, composite)]
        return [node(k, pending) for k in line_refs(j)]

    def emit(i: int, pending: HyperSub | None) -> int:
        stack = [(node(i, pending), None)]
        while stack:
            key, needs = stack.pop()
            if key in memo:
                continue
            j = proof.lines[key[0]][1]
            if needs is None:
                needs = premises(key[0], j, key[1])
            missing = [n for n in needs if n not in memo]
            if missing:
                stack.append((key, needs))
                stack.extend((n, None) for n in reversed(missing))
                continue
            memo[key] = _emit_line(j, key[1], [memo[n] for n in needs])
        return memo[node(i, pending)]

    def _emit_line(j, pending, done: list[int]) -> int:
        """A line justified by `j` under `pending`, given the output lines
        of its premises."""
        if isinstance(j, HypSub):
            return done[0]
        s = pending
        m = s.apply if s else (lambda t: t)  # no pending sigma: the identity
        if isinstance(j, Hyp):
            base = builder.add(j)
            return builder.add(HypSub(base, s)) if s else base
        if isinstance(j, (Refl, Sym, Trans)):  # every field is a term
            return builder.add(type(j)(*(m(getattr(j, f.name)) for f in dataclasses.fields(j))))
        if isinstance(j, (Compat, TermCompat)):
            if not s:
                return builder.add(j)
            pattern = s.image(j.op) if isinstance(j, Compat) else s.apply(j.pattern)
            lhs = tuple(s.apply(t) for t in j.lhs_args)
            rhs = tuple(s.apply(t) for t in j.rhs_args)
            if expand_compat:
                return _emit_term_compat(builder, pattern, lhs, rhs)
            return builder.add(TermCompat(pattern, lhs, rhs))
        if isinstance(j, Subst):
            j = Subst(j.line, Substitution.of({k: m(t) for k, t in j.delta.bindings}))
        elif isinstance(j, Ext):
            j = Ext(j.line, j.added.map_terms(m))
        return builder.add(with_line_refs(j, done))

    final = emit(len(proof.lines) - 1, None)
    normal = builder.proof(name=proof.name)
    if not normal.lines[final][0].set_eq(proof.conclusion()):
        raise ProofError(None, "normalisation changed the conclusion")
    if final != len(normal.lines) - 1:
        # the conclusion line must come last; re-point by a no-op extension-free copy
        normal = Proof(
            normal.theory,
            normal.logic,
            normal.lines + ((normal.lines[final][0], normal.lines[final][1]),),
            name=normal.name,
        )
    return normal


def is_normal(proof: Proof) -> bool:
    """Every hypersubstitution step sits directly on a hypothesis line."""
    for quasi, j in proof.lines:
        if isinstance(j, HypSub):
            _, base = proof.lines[j.line]
            if not isinstance(base, Hyp):
                return False
    return True


def strip_to_q(proof: Proof, closed: Theory) -> Proof:
    """Turn a normalised proof into a plain-calculus proof from the
    hyperclosure of its theory: hypothesis and hypersubstitution-over-
    hypothesis lines become hypotheses of `closed`."""
    if not is_normal(proof):
        raise ProofError(None, "proof is not normalised")
    index = {item.key(): k for k, item in enumerate(closed.items)}

    def closed_hyp(quasi: QuasiEquation, lineno: int) -> Hyp:
        k = index.get(quasi.key())
        if k is None:
            raise ProofError(lineno, "statement is not in the closed theory")
        return Hyp(k)

    lines: list[tuple[QuasiEquation, Justification]] = []
    for i, (quasi, j) in enumerate(proof.lines):
        if isinstance(j, (Hyp, HypSub)):
            lines.append((closed.items[closed_hyp(quasi, i).index], closed_hyp(quasi, i)))
        else:
            lines.append((quasi, j))
    out = Proof(closed, Logic.q(), tuple(lines), name=proof.name)
    check_proof(out)
    return out


def from_q_proof(qproof: Proof, theory: Theory, monoid: Monoid) -> Proof:
    """Inverse direction: a plain-calculus proof from the hyperclosure turns
    into a monoid-calculus proof from the original theory by prefixing each
    used closure item with hypothesis + hypersubstitution lines."""
    detailed = hyperclose_detailed(theory, monoid)
    by_key = {q.key(): (i, sigma) for q, i, sigma in detailed}
    builder = ProofBuilder(theory, Logic.mhq(monoid))
    mapping: list[int] = []  # qproof line -> output line
    for i, (quasi, j) in enumerate(qproof.lines):
        if isinstance(j, Hyp):
            if quasi.key() not in by_key:
                raise ProofError(i, "hypothesis is not an image of the base theory")
            item_idx, sigma = by_key[quasi.key()]
            base = builder.add(Hyp(item_idx))
            mapping.append(builder.add(HypSub(base, sigma)))
        else:
            mapping.append(builder.add(with_line_refs(j, [mapping[k] for k in line_refs(j)])))
    return builder.proof(name=qproof.name)


def map_proof(proof: Proof, sigma: HyperSub) -> Proof:
    """The line-wise image of a valid proof: keep every original line and
    follow it with its hypersubstituted copy; proves the image of the
    original conclusion."""
    if not proof.logic.admits(sigma):
        raise ProofError(None, "hypersubstitution is not admitted by the proof logic")
    lines = list(proof.lines)
    for i, (quasi, _) in enumerate(proof.lines):
        lines.append((sigma.apply_quasi(quasi), HypSub(i, sigma)))
    return Proof(proof.theory, proof.logic, tuple(lines), name=proof.name)


# -- bounded saturation --------------------------------------------------------


@dataclass
class SaturationResult:
    theory: Theory
    proof: Proof
    truncated_by: str | None  # "items", "iterations", or None at a fixpoint

    @property
    def truncated(self) -> bool:
        return self.truncated_by is not None

    def line_of(self, item: QuasiEquation) -> int:
        for i, (quasi, _) in enumerate(self.proof.lines):
            if quasi.set_eq(item):
                return i
        raise KeyError(str(item))


def saturate(
    theory: Theory,
    monoid: Monoid,
    term_depth_cap: int = 2,
    premise_count: int = 3,
    iterations: int = 2,
    max_items: int = 2000,
) -> SaturationResult:
    """Bounded forward closure under the calculus rules.

    Sound and deliberately incomplete: generated items are dropped when any
    term exceeds the depth cap or the premise list exceeds its cap (the
    hypotheses themselves are always kept), axiom instances range over a
    small term universe (two variables, depth at most min(term_depth_cap, 1)
    to keep the instance space tractable), and variable substitutions are
    variable-to-variable over each item's own variables.  Rounds combine
    only against the previous round's new items, so a fixpoint means no rule
    produces anything new anywhere.  Every emitted item carries a checkable
    proof line.  `truncated_by` names the cap that cut growth short:
    "items" when `max_items` dropped an item, else "iterations" when the
    rounds ran out before a fixpoint; it is None at a fixpoint.
    """
    require_one_signature((_named("theory", theory), theory.sig), (_named("monoid", monoid), monoid.sig))
    logic = Logic.mhq(monoid)
    builder = ProofBuilder(theory, logic)
    known: dict = {}
    order: list[QuasiEquation] = []
    capped = False

    def admit(quasi: QuasiEquation, make, force: bool = False) -> bool:
        nonlocal capped
        if quasi.key() in known:
            return False
        if not force:
            if len(quasi.premises) > premise_count:
                return False
            terms = [
                t for p in (*quasi.premises, quasi.conclusion) for t in (p.lhs, p.rhs)
            ]
            if any(term_depth(t) > term_depth_cap for t in terms):
                return False
            if len(order) >= max_items:
                capped = True
                return False
        line = builder.add(make())
        known[quasi.key()] = line
        order.append(quasi)
        return True

    frontier: list[QuasiEquation] = []
    for k, item in enumerate(theory.items):
        if admit(item, lambda k=k: Hyp(k), force=True):
            frontier.append(item)

    axiom_universe = iter_terms(theory.sig, 2, min(term_depth_cap, 1))
    sigmas = monoid.elements()

    def emit_axioms(consider) -> None:
        for t in axiom_universe:
            consider(QuasiEquation((Equation(t, t),), Equation(t, t)), lambda t=t: Refl(t))
        for t, s in itertools.product(axiom_universe, repeat=2):
            consider(
                QuasiEquation((Equation(t, s),), Equation(s, t)),
                lambda t=t, s=s: Sym(t, s),
            )
        if premise_count >= 2:
            for t, s, r in itertools.product(axiom_universe, repeat=3):
                consider(
                    QuasiEquation((Equation(t, s), Equation(s, r)), Equation(t, r)),
                    lambda t=t, s=s, r=r: Trans(t, s, r),
                )
        for op, arity in theory.sig.ops:
            if arity > premise_count:
                continue
            for lhs in itertools.product(axiom_universe, repeat=arity):
                for rhs in itertools.product(axiom_universe, repeat=arity):
                    consider(
                        QuasiEquation(
                            tuple(Equation(a, b) for a, b in zip(lhs, rhs)),
                            Equation(App(op, lhs), App(op, rhs)),
                        ),
                        lambda op=op, lhs=lhs, rhs=rhs: Compat(op, lhs, rhs),
                    )

    all_identities: list[Equation] = []
    seen_eq: set = set()

    def harvest(items) -> list[Equation]:
        fresh = []
        for q in items:
            for eq in (*q.premises, q.conclusion):
                if eq not in seen_eq:
                    seen_eq.add(eq)
                    fresh.append(eq)
        return fresh

    def cut_pair(minor: QuasiEquation, major: QuasiEquation, consider) -> None:
        alpha = minor.conclusion
        if alpha in major.premises:
            kept = tuple(p for p in major.premises if p != alpha)
            consider(
                QuasiEquation(minor.premises + kept, major.conclusion),
                lambda major=major, minor=minor: Cut(
                    major=known[major.key()], minor=known[minor.key()]
                ),
            )

    truncated_by = None
    for round_no in range(iterations):
        new: list[QuasiEquation] = []

        def consider(quasi: QuasiEquation, make) -> None:
            if admit(quasi, make):
                new.append(quasi)

        if round_no == 0:
            emit_axioms(consider)

        current = list(order)
        front_keys = {f.key() for f in frontier}
        older = [q for q in current if q.key() not in front_keys]
        new_identities = harvest(frontier)

        for q in frontier:
            base = known[q.key()]
            for sigma in sigmas:
                consider(sigma.apply_quasi(q), lambda base=base, sigma=sigma: HypSub(base, sigma))
            vs = sorted(q.variables())
            if 0 < len(vs) <= 4:
                for image in itertools.product(vs, repeat=len(vs)):
                    delta = Substitution.of({v: Var(w) for v, w in zip(vs, image)})
                    if not delta.bindings:
                        continue
                    consider(q.map_terms(delta.apply), lambda base=base, delta=delta: Subst(base, delta))
            for eq in itertools.chain(all_identities, new_identities):
                consider(
                    QuasiEquation((eq,) + q.premises, q.conclusion),
                    lambda base=base, eq=eq: Ext(base, eq),
                )
        for q in older:
            base = known[q.key()]
            for eq in new_identities:
                consider(
                    QuasiEquation((eq,) + q.premises, q.conclusion),
                    lambda base=base, eq=eq: Ext(base, eq),
                )

        for minor in frontier:
            for major in current:
                cut_pair(minor, major, consider)
        for minor in older:
            for major in frontier:
                cut_pair(minor, major, consider)

        all_identities.extend(new_identities)
        if not new:
            break
        frontier = new
    else:
        truncated_by = "iterations"
    if capped:
        truncated_by = "items"

    result_theory = Theory(theory.sig, tuple(order), name=theory.name)
    return SaturationResult(result_theory, builder.proof(), truncated_by)
