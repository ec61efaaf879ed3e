"""Hypothesis strategies for terms, substitutions, hypersubstitutions and
finite algebras."""

import hypothesis.strategies as st

from hql.terms import App, Equation, QuasiEquation, Signature, Substitution, Var
from hql.algebras import FiniteAlgebra
from hql.hypersubs import HyperSub

GRP = Signature.of("GRP", mul=2)
LAT = Signature.of("LAT", meet=2, join=2)
MIXED = Signature.of("MIXED", f=2, g=1, c=0)
TERN = Signature.of("TERN", h=3, g=1, c=0)


def terms(sig, n_vars=3, max_depth=4):
    base = st.integers(0, n_vars - 1).map(Var)
    consts = [op for op, n in sig.ops if n == 0]
    if consts:
        base = base | st.sampled_from(consts).map(App)

    def extend(children):
        branches = [
            st.tuples(*([children] * n)).map(lambda args, op=op: App(op, args))
            for op, n in sig.ops
            if n >= 1
        ]
        return st.one_of(branches)

    return st.recursive(base, extend, max_leaves=2**max_depth)


def equations(sig, n_vars=3, max_depth=3):
    return st.tuples(terms(sig, n_vars, max_depth), terms(sig, n_vars, max_depth)).map(
        lambda pair: Equation(*pair)
    )


def quasis(sig, n_vars=3, max_depth=3, max_premises=3):
    return st.tuples(
        st.lists(equations(sig, n_vars, max_depth), max_size=max_premises),
        equations(sig, n_vars, max_depth),
    ).map(lambda pair: QuasiEquation(tuple(pair[0]), pair[1]))


def substitutions(sig, n_vars=3, max_depth=2):
    return st.dictionaries(
        st.integers(0, n_vars - 1), terms(sig, n_vars, max_depth), max_size=n_vars
    ).map(Substitution.of)


def hypersubs(sig, max_depth=2):
    image_lists = [terms(sig, n_vars=max(n, 1), max_depth=max_depth) for _, n in sig.ops]

    def fix(images):
        out = {}
        for (op, n), img in zip(sig.ops, images):
            out[op] = _clamp_vars(img, n)
        return HyperSub.of(sig, out)

    return st.tuples(*image_lists).map(fix)


def _clamp_vars(term, arity):
    if isinstance(term, Var):
        return Var(term.index % arity) if arity else App("c")
    return App(term.op, tuple(_clamp_vars(a, arity) for a in term.args))


@st.composite
def random_algebras(draw, sig, min_size=1, max_size=3):
    size = draw(st.integers(min_size, max_size))
    tables = {
        op: draw(st.lists(st.integers(0, size - 1), min_size=size**n, max_size=size**n))
        for op, n in sig.ops
    }
    return FiniteAlgebra.of(sig, [str(i) for i in range(size)], tables, name="a")
