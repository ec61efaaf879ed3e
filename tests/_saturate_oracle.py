"""`saturate` as it was before it pruned candidates by the premise and
depth caps and found cuts through a premise index: every extension and
every compatibility instance is built and refused after its statement, and
each cut round tests frontier x all lines by scanning premise lists.  The differential reference for
`hql.proofs.saturate`; not used by the package."""

from __future__ import annotations

import itertools

from hql.hypersubs import Monoid
from hql.proofs import (
    Compat,
    Cut,
    Ext,
    Hyp,
    HypSub,
    Justification,
    Logic,
    ProofBuilder,
    Refl,
    SaturationResult,
    Subst,
    Sym,
    Trans,
    produced_statement,
)
from hql.semantics import Theory
from hql.terms import Equation, QuasiEquation, Substitution, Var, iter_terms, term_depth


def saturate(
    theory: Theory,
    monoid: Monoid,
    term_depth_cap: int = 2,
    premise_count: int = 3,
    iterations: int = 2,
    max_items: int = 2000,
) -> SaturationResult:
    logic = Logic.mhq(monoid)
    builder = ProofBuilder(theory, logic)
    known: set = set()
    order: list[QuasiEquation] = []
    truncated_by = None

    def statement(j: Justification) -> QuasiEquation:
        return produced_statement(j, order, theory, logic, len(order))

    def admit(j: Justification, quasi: QuasiEquation) -> None:
        builder.add(j)
        known.add(quasi.key())
        order.append(quasi)

    for k in range(len(theory.items)):
        quasi = statement(Hyp(k))
        if quasi.key() not in known:
            admit(Hyp(k), quasi)

    axiom_universe = iter_terms(theory.sig, 2, min(term_depth_cap, 1))
    sigmas = monoid.elements()

    def axioms():
        for t in axiom_universe:
            yield Refl(t)
        for t, s in itertools.product(axiom_universe, repeat=2):
            yield Sym(t, s)
        if premise_count >= 2:
            for t, s, r in itertools.product(axiom_universe, repeat=3):
                yield Trans(t, s, r)
        for op, arity in theory.sig.ops:
            if arity <= premise_count:
                for lhs in itertools.product(axiom_universe, repeat=arity):
                    for rhs in itertools.product(axiom_universe, repeat=arity):
                        yield Compat(op, lhs, rhs)

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

    def candidates():
        nonlocal truncated_by
        frontier = range(len(order))
        for round_no in range(iterations):
            start = len(order)
            if round_no == 0:
                yield from axioms()
            current = range(len(order))
            older = [i for i in current if i not in frontier]
            new_identities = harvest(order[i] for i in frontier)

            for base in frontier:
                for sigma in sigmas:
                    yield HypSub(base, sigma)
                vs = sorted(order[base].variables())
                if 0 < len(vs) <= 4:
                    for image in itertools.product(vs, repeat=len(vs)):
                        delta = Substitution.of({v: Var(w) for v, w in zip(vs, image)})
                        if delta.bindings:
                            yield Subst(base, delta)
                for eq in itertools.chain(all_identities, new_identities):
                    yield Ext(base, eq)
            for base in older:
                for eq in new_identities:
                    yield Ext(base, eq)

            pairs = itertools.chain(itertools.product(frontier, current), itertools.product(older, frontier))
            for minor, major in pairs:
                if order[minor].conclusion in order[major].premises:
                    yield Cut(major=major, minor=minor)

            all_identities.extend(new_identities)
            frontier = range(start, len(order))
            if not frontier:
                return
        truncated_by = "iterations"

    for j in candidates():
        quasi = statement(j)
        if quasi.key() in known or len(quasi.premises) > premise_count:
            continue
        terms = [t for p in (*quasi.premises, quasi.conclusion) for t in (p.lhs, p.rhs)]
        if any(term_depth(t) > term_depth_cap for t in terms):
            continue
        if len(order) >= max_items:
            truncated_by = "items"
            break
        admit(j, quasi)

    result_theory = Theory(theory.sig, tuple(order), name=theory.name)
    return SaturationResult(result_theory, builder.proof(), truncated_by)
