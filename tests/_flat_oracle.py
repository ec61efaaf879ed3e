"""Depth-bounded term sweeps for the flat-algebra checks of `hql.semantics`.

`check_absorption` and `check_basic_preservation` decide every depth from
one level (see their docstrings).  These are the direct readings of the two
properties instead: enumerate every term up to a depth and check each one.
They are exponential in the depth, so the differential tests run them at
small depths only.
"""

from hql.algebras import AlgebraError
from hql.semantics import (
    BasicTermFailure,
    basic_terms,
    classify_basic,
    is_zero_semilattice,
    satisfies,
)
from hql.terms import App, Equation, Var, subst_vars, term_depth, variables


def iter_terms_canonical(sig, max_depth, max_vars):
    """Terms up to renaming: distinct variables appear as x0, x1, ... in
    first-occurrence order.  At most `max_vars` distinct variables.  Ordered
    by depth, each depth in generation order."""

    def grow(depth, used):
        """Every term of depth <= `depth` after `used` variables, with the
        number of variables used after it."""
        out = []
        for i in range(min(used + 1, max_vars)):
            out.append((Var(i), max(used, i + 1)))
        for op, n in sig.ops:
            if n == 0:
                out.append((App(op), used))
            elif depth > 0:
                partial = [((), used)]
                for _ in range(n):
                    partial = [
                        (args + (t,), u2)
                        for args, u in partial
                        for t, u2 in grow(depth - 1, u)
                    ]
                out += [(App(op, args), u) for args, u in partial]
        return out

    return sorted((t for t, _ in grow(max_depth, 0)), key=term_depth)


def check_absorption(algebra, meet, zero, depth_max):
    """Zero plugged into each variable of each term of depth <= depth_max,
    checked under every assignment of the other variables."""
    pre = is_zero_semilattice(algebra, meet, zero)
    if not pre:
        raise AlgebraError(f"not a zero-semilattice algebra (fails {pre.label})")
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


def check_basic_preservation(sigma, sig, depth_max, x=0, pool=None):
    """Every basic term of depth <= depth_max, upward in depth, mapped and
    classified again."""
    if not sigma.is_symbol_renaming():
        raise ValueError("preservation check requires symbol-renaming images")
    if pool is None:
        pool = range(1000, 1000 + sig.max_arity() * max(depth_max, 1))
    for depth in range(depth_max + 1):
        for term in basic_terms(sig, x, depth, pool):
            mapped = sigma.apply(term)
            got = classify_basic(mapped, x)
            if got != depth:
                return BasicTermFailure(term, mapped, depth, got)
    return True
