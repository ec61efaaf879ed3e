"""Recursive references for the memoised term functions of `hql.terms`.

Terms are hash-consed, and `term_depth`, `variables`, `term_key` and
`Signature.validate` read or fill per-term caches.  These are the plain
structural readings of the definitions, recomputed on every call; a term is
also taken apart into nested tuples (`tree`) and rebuilt from them
(`build`), so a test can build the same term independently.
"""

from hql.terms import App, TermError, Var


def term_depth(term) -> int:
    if isinstance(term, Var) or not term.args:
        return 0
    return 1 + max(term_depth(a) for a in term.args)


def variables(term) -> set[int]:
    if isinstance(term, Var):
        return {term.index}
    out: set[int] = set()
    for arg in term.args:
        out |= variables(arg)
    return out


def term_key(term):
    if isinstance(term, Var):
        return (0, term.index)
    return (1, term.op, tuple(term_key(a) for a in term.args))


def validate(sig, term) -> None:
    if isinstance(term, Var):
        return
    if not sig.has(term.op):
        raise TermError(f"unknown operation symbol {term.op!r}")
    n = sig.arity(term.op)
    if len(term.args) != n:
        raise TermError(f"operation {term.op!r} expects {n} argument(s), got {len(term.args)}")
    for arg in term.args:
        validate(sig, arg)


def tree(term):
    """The term as nested tuples: ("var", index) or ("app", op, children)."""
    if isinstance(term, Var):
        return ("var", term.index)
    return ("app", term.op, tuple(tree(a) for a in term.args))


def build(node):
    """The term of a `tree`, built bottom-up from fresh argument tuples."""
    if node[0] == "var":
        return Var(node[1])
    return App(node[1], tuple([build(child) for child in node[2]]))
