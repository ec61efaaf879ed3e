"""Depth-bounded term sweeps for the flat-algebra checks of `hql.semantics`.

`check_absorption` and `check_basic_preservation` decide every depth from
one level (see their docstrings).  These are the direct readings of the two
properties instead: enumerate every term up to a depth and check each one.
They are exponential in the depth, so the differential tests run them at
small depths only.

`basic_terms` and `classify_basic` are the recursive readings of the
definitions that `hql.semantics` implements as loops over the spine; the
preservation sweep below uses these, not the loops it is compared with.
"""

import itertools

from hql.algebras import AlgebraError
from hql.semantics import BasicTermFailure, is_zero_semilattice, satisfies
from hql.terms import App, Equation, Var, subst_vars, term_depth, variables


def basic_terms(sig, x, depth, pool):
    """Each path of (op, arity, spine position) slots, outermost first, in
    product order, built top-down; fresh variables are taken from `pool` in
    pre-order as the build reaches them."""
    if x in pool:
        raise ValueError("fresh-variable pool must not contain the distinguished variable")
    slots = [(op, arity, i) for op, arity in sig.ops if arity >= 1 for i in range(arity)]

    def build(levels):
        counter = 0

        def go(rest):
            nonlocal counter
            if not rest:
                return Var(x)
            op, arity, pos = rest[0]
            args = []
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


def classify_basic(term, x):
    """The depth of `term` as a basic term in x, or None: exactly one
    argument per level contains x, the others are variables other than x,
    and those side variables are pairwise distinct over the whole term."""
    side = []

    def walk(t):
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
    if d is None or len(side) != len(set(side)):
        return None
    return d


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
