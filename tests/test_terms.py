import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from hql.terms import (
    App,
    Equation,
    QuasiEquation,
    Signature,
    Substitution,
    TermError,
    Var,
    format_term,
    iter_terms,
    iter_terms_canonical,
    term_depth,
    variables,
)
from hql.dsl import ParseError, parse_quasi, parse_term

from strategies import GRP, LAT, MIXED, substitutions, terms

x0, x1, x2 = Var(0), Var(1), Var(2)


def meet(a, b):
    return App("meet", (a, b))


def join(a, b):
    return App("join", (a, b))


def test_signature_invariants():
    with pytest.raises(TermError):
        Signature(())
    with pytest.raises(TermError):
        Signature((("f", 2), ("f", 1)))
    with pytest.raises(TermError):
        Signature((("f", -1),))


def test_validate_term():
    LAT.validate(meet(x0, join(x1, x0)))
    with pytest.raises(TermError):
        LAT.validate(App("meet", (x0,)))
    with pytest.raises(TermError):
        LAT.validate(App("nope", ()))


def test_identity_subst_is_noop():
    t = meet(x0, x1)
    assert Substitution.identity().apply(t) == t
    assert Substitution.of({0: x0}).apply(t) == t


def test_simultaneous_swap():
    swap = Substitution.of({0: x1, 1: x0})
    t = meet(x0, join(x0, x1))
    assert swap.apply(t) == meet(x1, join(x1, x0))
    assert swap.apply(swap.apply(t)) == t


def test_single_variable_substitution():
    delta = Substitution.of({0: meet(x0, x0)})
    assert delta.apply(x0) == meet(x0, x0)


def test_compose_identity_and_chain():
    delta = Substitution.of({0: meet(x0, x1)})
    assert Substitution.identity().compose(delta) == delta
    assert delta.compose(Substitution.identity()) == delta
    d2 = Substitution.of({0: x1})
    d1 = Substitution.of({1: x2})
    assert d1.compose(d2).apply(Var(0)) == x2


def test_swap_composed_with_itself_is_identity():
    swap = Substitution.of({0: x1, 1: x0})
    assert swap.compose(swap) == Substitution.identity()


@settings(max_examples=200)
@given(substitutions(LAT), substitutions(LAT), terms(LAT))
def test_compose_postcondition(d1, d2, t):
    assert d1.compose(d2).apply(t) == d1.apply(d2.apply(t))


@settings(max_examples=200)
@given(terms(LAT))
def test_swap_twice_restores(t):
    swap = Substitution.of({0: x1, 1: x0})
    assert swap.apply(swap.apply(t)) == t


@settings(max_examples=300)
@given(st.sampled_from([GRP, LAT, MIXED]).flatmap(lambda s: st.tuples(st.just(s), terms(s, max_depth=6))))
def test_parse_print_roundtrip(pair):
    sig, t = pair
    assert parse_term(format_term(t), sig) == t


def test_print_canonical_spacing():
    sig = Signature.of("S", f=2)
    assert format_term(parse_term("f(x0,x1)", sig)) == "f(x0, x1)"


def test_parse_depth_two():
    t = parse_term("meet(x0, join(x1, x0))", LAT)
    assert t == meet(x0, join(x1, x0))
    assert term_depth(t) == 2


def test_parse_arity_mismatch_has_position():
    with pytest.raises(ParseError) as err:
        parse_term("meet(x0)", LAT)
    assert "expects 2 argument" in str(err.value)
    assert err.value.line == 1


def test_parse_unknown_symbol():
    with pytest.raises(ParseError):
        parse_term("frob(x0, x1)", LAT)


def test_parse_syntax_error():
    with pytest.raises(ParseError):
        parse_term("meet(x0,, x1)", LAT)


def test_nullary_forms():
    t = parse_term("c", MIXED)
    assert t == App("c")
    assert parse_term("c()", MIXED) == App("c")
    assert format_term(App("c")) == "c"


def test_alias_canonicalisation():
    q = parse_quasi("meet(x, z) = meet(y, z) => x = y", LAT)
    assert q.premises[0] == Equation(meet(x0, x1), meet(x2, x1))
    assert q.conclusion == Equation(x0, x2)


def test_alias_conflict_with_explicit_index():
    with pytest.raises(ParseError):
        parse_quasi("meet(y, x0) = x0 => y = x0", LAT)


def test_quasi_forms():
    bare = parse_quasi("meet(x0, x0) = x0", LAT)
    assert bare.premises == ()
    arrow = parse_quasi("=> meet(x0, x0) = x0", LAT)
    assert arrow == bare
    full = parse_quasi("x0 = x1, x1 = x2 => x0 = x2", LAT)
    assert len(full.premises) == 2


def test_quasi_premise_dedup():
    q = QuasiEquation(
        (Equation(x0, x1), Equation(x0, x1), Equation(x1, x2)), Equation(x0, x2)
    )
    assert len(q.premises) == 2
    assert q.set_eq(
        QuasiEquation((Equation(x1, x2), Equation(x0, x1)), Equation(x0, x2))
    )


def test_iter_terms_counts():
    assert len(iter_terms(GRP, 2, 0)) == 2
    assert len(iter_terms(GRP, 2, 1)) == 6
    assert len(iter_terms(GRP, 2, 2)) == 38


def test_iter_terms_canonical_first_occurrence_order():
    for t in iter_terms_canonical(LAT, 2, 4):
        vs = []
        stack = [t]
        seen = []
        while stack:
            node = stack.pop(0)
            if isinstance(node, Var):
                if node.index not in seen:
                    seen.append(node.index)
            else:
                stack = list(node.args) + stack
        assert seen == sorted(seen) == list(range(len(seen)))
