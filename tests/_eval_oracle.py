"""Recursive per-assignment reference for term evaluation and `satisfies`.

The straightforward reading of the definitions: evaluate each term
recursively under one assignment dict at a time, walking the assignments in
lexicographic order (variables ascending, elements in universe order).
`FiniteAlgebra.values` evaluates whole blocks of assignments bottom-up; the
differential tests compare the two witness for witness.
"""

import itertools

from hql.algebras import AlgebraError
from hql.semantics import CounterExample
from hql.terms import Var, as_quasi


def eval(algebra, term, env):
    if isinstance(term, Var):
        if term.index not in env:
            raise AlgebraError(f"unassigned variable x{term.index}")
        return env[term.index]
    pos = 0
    for arg in term.args:
        pos = pos * algebra.size + eval(algebra, arg, env)
    return algebra.table(term.op)[pos]


def satisfies(algebra, item):
    quasi = as_quasi(item)
    vs = sorted(quasi.variables())
    for values in itertools.product(range(algebra.size), repeat=len(vs)):
        env = dict(zip(vs, values))
        if not all(eval(algebra, p.lhs, env) == eval(algebra, p.rhs, env) for p in quasi.premises):
            continue
        lhs = eval(algebra, quasi.conclusion.lhs, env)
        rhs = eval(algebra, quasi.conclusion.rhs, env)
        if lhs != rhs:
            return CounterExample(quasi.conclusion, env, lhs, rhs)
    return True
