import copy
import operator
import pickle
import sys
import threading
from dataclasses import FrozenInstanceError

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
    term_key,
    variables,
)
from hql.dsl import ParseError, parse_quasi, parse_term

import _term_oracle as oracle
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
    assert Substitution().apply(t) == t
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
    assert Substitution().compose(delta) == delta
    assert delta.compose(Substitution()) == delta
    d2 = Substitution.of({0: x1})
    d1 = Substitution.of({1: x2})
    assert d1.compose(d2).apply(Var(0)) == x2


def test_swap_composed_with_itself_is_identity():
    swap = Substitution.of({0: x1, 1: x0})
    assert swap.compose(swap) == Substitution()


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


# -- hash-consing ---------------------------------------------------------------

SIGS = [GRP, LAT, MIXED]
ANY_TERM = st.sampled_from(SIGS).flatmap(lambda sig: terms(sig, max_depth=5))


@settings(max_examples=200)
@given(ANY_TERM, ANY_TERM)
def test_terms_built_independently_are_one_object(t, s):
    assert oracle.build(oracle.tree(t)) is t
    assert (t is s) == (oracle.tree(t) == oracle.tree(s)) == (t == s)


@settings(max_examples=200)
@given(ANY_TERM)
def test_cached_term_functions_match_recursive_references(t):
    for _ in range(2):  # the first call may fill a cache, the second reads it
        assert term_depth(t) == oracle.term_depth(t)
        assert variables(t) == oracle.variables(t)
        assert term_key(t) == oracle.term_key(t)


def test_variables_returns_a_fresh_set():
    t = meet(x0, join(x1, x0))
    variables(t).add(7)
    assert variables(t) == {0, 1}


def _validate_error(validate, t):
    try:
        validate(t)
    except TermError as err:
        return str(err)
    return None


@settings(max_examples=200)
@given(ANY_TERM, st.sampled_from(SIGS))
def test_validate_matches_recursive_reference(t, sig):
    want = _validate_error(lambda u: oracle.validate(sig, u), t)
    for _ in range(2):  # the second call may answer from what the first accepted
        assert _validate_error(sig.validate, t) == want


def test_validation_is_remembered_per_signature():
    unary = Signature.of("U", meet=1, join=2)
    t = meet(x0, join(x1, x0))
    for _ in range(2):
        LAT.validate(t)
        with pytest.raises(TermError, match="expects 1 argument"):
            unary.validate(t)
        with pytest.raises(TermError, match="unknown operation symbol 'meet'"):
            GRP.validate(t)
    # an invalid term raises on every call, though its valid argument is remembered
    bad = meet(join(x0, x1), App("meet", (x0,)))
    for _ in range(3):
        with pytest.raises(TermError, match="expects 2 argument"):
            LAT.validate(bad)
    # what a signature remembers is not part of its value
    assert LAT == Signature.of("other", meet=2, join=2)
    assert hash(LAT) == hash(Signature.of("", meet=2, join=2))
    assert repr(LAT) == "Signature(ops=(('meet', 2), ('join', 2)), name='LAT')"


def test_term_repr_is_unchanged():
    assert repr(meet(x0, App("c"))) == "App(op='meet', args=(Var(index=0), App(op='c', args=())))"
    assert repr(x2) == "Var(index=2)"


@settings(max_examples=100)
@given(ANY_TERM)
def test_pickle_and_copies_give_back_the_interned_term(t):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(t, protocol)) is t
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    eq = Equation(t, x0)
    assert copy.deepcopy(eq).lhs is t
    assert pickle.loads(pickle.dumps(eq)).lhs is t


def test_assignment_raises():
    t = meet(x0, x1)
    for term, name in ((t, "op"), (t, "args"), (t, "unknown"), (x0, "index")):
        with pytest.raises(FrozenInstanceError):
            setattr(term, name, x2)
        with pytest.raises(FrozenInstanceError):
            delattr(term, name)
    assert (t.op, t.args, x0.index) == ("meet", (x0, x1), 0)


def test_threads_building_the_same_terms_get_identical_objects():
    # more threads than cores and a short switch interval, so that threads
    # often interleave between an intern table's miss and its insertion;
    # fresh symbols and indices, so no one built these terms before
    count, start = 4, threading.Barrier(4)
    built: list = [None] * count

    def build(slot):
        start.wait()
        built[slot] = [App("threaded", (Var(10_000 + i), App("threaded_c"))) for i in range(2_000)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(made) == 2_000 for made in built)
    assert all(all(map(operator.is_, built[0], other)) for other in built[1:])
