"""Pairwise reference for the closure of a generated monoid.

The straightforward reading of "the submonoid generated": starting from the
identity and the generators, add every composite a.compose(b) and
b.compose(a) of a new member with every member found so far, until nothing
new appears.  `hql.hypersubs` reaches the same closure by right products
with the generators alone; the differential test compares the two, refusals
included.
"""

from hql.hypersubs import HyperSub


def generated_closure(sig, generators, cap):
    """The members in canonical order, or None once more than `cap` are found."""
    ident = HyperSub.identity(sig)
    closure = {ident, *generators}
    frontier = [ident, *generators]
    while frontier:
        nxt = []
        for a in frontier:
            if len(closure) > cap:
                return None
            for b in list(closure):
                for c in (a.compose(b), b.compose(a)):
                    if c not in closure:
                        closure.add(c)
                        nxt.append(c)
        frontier = nxt
    return tuple(sorted(closure, key=HyperSub.sort_key))
