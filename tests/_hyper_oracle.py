"""Per-sigma reference for the hyper checks.

The straightforward reading of the definitions: apply every monoid member
to the quasi-equation and check the image classically, or rebuild the
derived algebra of every (witness, member) pair and check the bases in it.
`hql.semantics` decides the same questions once per distinct derived
algebra; the differential tests compare the two field for field.
"""

from hql.semantics import SolidityFailure, SolidityReport, satisfies, satisfies_theory
from hql.terms import as_quasi


def hyper_satisfies(algebra, item, monoid):
    quasi = as_quasi(item)
    for sigma in monoid.elements():
        result = satisfies(algebra, sigma.apply_quasi(quasi))
        if not result:
            result.sigma = sigma
            return result
    return True


def hyper_satisfies_theory(algebra, theory, monoid):
    for i, item in enumerate(theory.items):
        result = hyper_satisfies(algebra, item, monoid)
        if not result:
            result.item = i
            return result
    return True


def check_solidity(bases, witnesses, monoid):
    failures = []
    for w in witnesses:
        for sigma in monoid.elements():
            result = satisfies_theory(w.derived(sigma), bases)
            if not result:
                failures.append(SolidityFailure(w.name or "<unnamed>", sigma, result))
    if failures:
        return SolidityReport(failures)
    return True
