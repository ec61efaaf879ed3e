import dataclasses
import itertools
import pickle
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import hql.hypersubs
from hql.hypersubs import PRESETS, HyperSub, Monoid, MonoidError
from hql.terms import App, Equation, QuasiEquation, Signature, TermError, Var, subst_vars

import _closure_oracle
from strategies import GRP, LAT, MIXED, hypersubs, substitutions, terms

x0, x1, x2 = Var(0), Var(1), Var(2)


def mul(a, b):
    return App("mul", (a, b))


IDENT = HyperSub.identity(GRP)
SWAP = HyperSub.of(GRP, {"mul": mul(x1, x0)})
PROJ1 = HyperSub.of(GRP, {"mul": x0})
PROJ2 = HyperSub.of(GRP, {"mul": x1})

CANCEL_RIGHT = QuasiEquation(
    (Equation(mul(x0, x1), mul(x2, x1)),), Equation(x0, x2)
)
CANCEL_LEFT = QuasiEquation(
    (Equation(mul(x1, x0), mul(x1, x2)),), Equation(x0, x2)
)


def test_image_validation():
    with pytest.raises(TermError):
        HyperSub.of(GRP, {})
    with pytest.raises(TermError):
        HyperSub.of(GRP, {"mul": x2})  # variable beyond the arity
    with pytest.raises(TermError):
        HyperSub.of(GRP, {"mul": mul(x0, x1), "extra": x0})


def test_image_lookup_is_not_a_field():
    sigma = HyperSub.of(GRP, {"mul": mul(x1, x0)})
    before = (repr(sigma), hash(sigma))
    assert sigma.image("mul") == mul(x1, x0)
    assert (repr(sigma), hash(sigma)) == before == (repr(SWAP), hash(SWAP))
    assert sigma == SWAP and [f.name for f in dataclasses.fields(sigma)] == ["images"]
    assert pickle.loads(pickle.dumps(sigma)) == sigma
    with pytest.raises(TermError, match="no image for operation symbol 'div'"):
        sigma.image("div")


def test_identity_application():
    t = mul(x0, mul(x1, x2))
    assert IDENT.apply(t) == t
    assert IDENT.apply_quasi(CANCEL_RIGHT) == CANCEL_RIGHT


def test_swap_sends_right_cancellation_to_left():
    assert SWAP.apply_quasi(CANCEL_RIGHT) == CANCEL_LEFT


def test_swap_on_nested_term():
    # x * (y * z) becomes (z * y) * x
    t = mul(x0, mul(x1, x2))
    assert SWAP.apply(t) == mul(mul(x2, x1), x0)


def test_second_projection_trivialises_premise():
    mapped = PROJ2.apply_quasi(CANCEL_RIGHT)
    assert mapped == QuasiEquation((Equation(x1, x1),), Equation(x0, x2))


def test_compose_identity_laws():
    assert IDENT.compose(SWAP) == SWAP
    assert SWAP.compose(IDENT) == SWAP


def test_swap_is_involution():
    assert SWAP.compose(SWAP) == IDENT


@settings(max_examples=150)
@given(hypersubs(LAT), hypersubs(LAT), terms(LAT, max_depth=5))
def test_compose_defining_law(s1, s2, t):
    assert s1.compose(s2).apply(t) == s1.apply(s2.apply(t))


@settings(max_examples=100)
@given(hypersubs(GRP), hypersubs(GRP), hypersubs(GRP))
def test_compose_associative(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


def _apply_naive(sigma, term):
    # second implementation for the differential test: explicit environment
    # passing instead of image substitution
    def walk(t, env):
        if isinstance(t, Var):
            return env[t.index]
        return subst_vars(
            sigma.image(t.op), {i: walk(a, env) for i, a in enumerate(t.args)}
        )

    from hql.terms import variables

    env = {v: Var(v) for v in variables(term) | {0}}
    return walk(term, env)


@settings(max_examples=150)
@given(hypersubs(MIXED), terms(MIXED, max_depth=4))
def test_apply_matches_naive_implementation(sigma, t):
    assert sigma.apply(t) == _apply_naive(sigma, t)


def test_trivial_monoid():
    m = Monoid.trivial(GRP)
    assert m.elements() == (IDENT,)
    assert m.contains(IDENT) and not m.contains(SWAP)


def test_fundamental_count_single_binary_op():
    m = Monoid.fundamental(GRP)
    assert len(m.elements()) == 4
    images = {s.image("mul") for s in m.elements()}
    assert images == {mul(x0, x0), mul(x0, x1), mul(x1, x0), mul(x1, x1)}


def test_fundamental_closure_exhaustive():
    elems = Monoid.fundamental(LAT).elements()
    assert len(elems) == 64
    members = set(elems)
    for a, b in itertools.product(elems, repeat=2):
        assert a.compose(b) in members


def test_generated_closure():
    m = Monoid.generated(GRP, [SWAP], cap=4)
    assert set(m.elements()) == {IDENT, SWAP}


def test_generated_cap_exceeded():
    deep = HyperSub.of(GRP, {"mul": mul(mul(x0, x1), x1)})
    with pytest.raises(MonoidError):
        Monoid.generated(GRP, [deep], cap=3).elements()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_generated_closure_matches_pairwise_oracle(data):
    # right products by the generators against every two-sided product, on
    # closures that fit the cap and on ones it refuses
    sig = data.draw(st.sampled_from([GRP, LAT, MIXED]))
    generators = data.draw(st.lists(hypersubs(sig, max_depth=1), min_size=1, max_size=2))
    cap = data.draw(st.integers(2, 8))
    want = _closure_oracle.generated_closure(sig, generators, cap)
    monoid = Monoid.generated(sig, generators, cap=cap)
    if want is None:
        with pytest.raises(MonoidError, match=f"exceeds cap {cap}"):
            monoid.elements()
    else:
        assert monoid.elements() == want


def test_explicit_requires_identity():
    with pytest.raises(MonoidError):
        Monoid.explicit(GRP, [SWAP])


def test_explicit_requires_closure():
    # {id, proj1} is closed: proj1 o proj1 = proj1, id neutral
    Monoid.explicit(GRP, [IDENT, PROJ1])
    with pytest.raises(MonoidError):
        deep = HyperSub.of(GRP, {"mul": mul(mul(x0, x1), x0)})
        Monoid.explicit(GRP, [IDENT, deep])


def is_fundamental(sigma: HyperSub) -> bool:
    """True iff every image is one symbol applied to variables only."""
    return all(
        isinstance(img, App) and all(isinstance(a, Var) for a in img.args)
        for _, img in sigma.images
    )


def test_is_fundamental_cases():
    assert is_fundamental(IDENT)
    assert not is_fundamental(PROJ1)
    nested = HyperSub.of(GRP, {"mul": mul(mul(x0, x1), x1)})
    assert not is_fundamental(nested)


def test_symbol_renaming_cases():
    assert IDENT.is_symbol_renaming()
    assert SWAP.is_symbol_renaming()
    rep = HyperSub.of(GRP, {"mul": mul(x0, x0)})
    assert is_fundamental(rep) and not rep.is_symbol_renaming()


def test_depth_slice_counts():
    assert len(Monoid.depth_slice(GRP, 0).elements()) == 2
    assert len(Monoid.depth_slice(GRP, 1).elements()) == 6
    assert len(Monoid.depth_slice(GRP, 2).elements()) == 38


def test_preset_too_large_to_enumerate_is_refused(ws):
    # and/2 or/2 not/1 zero/0 one/0 at depth 1: 40 * 40 * 24 * 12 * 12 members
    with pytest.raises(MonoidError, match=r"depth over BOOL has 5,529,600 members"):
        Monoid.depth_slice(ws.signature("BOOL"), 1).elements()
    # meet/2 join/2: 81,610 images per symbol at depth 3, about 1.3e10 at
    # depth 4, counted without building any
    with pytest.raises(MonoidError, match=r"depth over LAT has 6,660,192,100 members"):
        Monoid.depth_slice(LAT, 3).elements()
    start = time.perf_counter()
    with pytest.raises(MonoidError, match=r"depth over LAT has 177,432,635,288,891,176,804 members"):
        Monoid.depth_slice(LAT, 4).elements()
    # past the ceiling the count is not carried exactly; at depth 12 it
    # would already have thousands of digits
    with pytest.raises(MonoidError, match=r"depth over LAT has at least 1,000,000,000,000,000,000,000,000,000,000 members"):
        Monoid.depth_slice(LAT, 40).elements()
    assert time.perf_counter() - start < 1
    # zero_meet is counted too, before any image is built: f/2 has 1,403,956
    # images at depth 3
    flat = ws.signature("FLAT")
    for depth, count in ((3, "1,403,956"), (40, "at least 1,000,000,000,000,000,000,000,000,000,000")):
        start = time.perf_counter()
        with pytest.raises(MonoidError, match=rf"zero_meet over FLAT has {count} members, more than the 1,000,000"):
            Monoid.zero_meet(flat, depth, "zero", "meet").elements()
        assert time.perf_counter() - start < 1


def _preset_spellings(sig, depths):
    """Every PRESETS word over `sig` with every choice of its parameters."""
    choices = {
        "depth": depths,
        "constant": [op for op, n in sig.ops if n == 0],
        "binary operation": [op for op, n in sig.ops if n == 2],
    }
    for word, spec in PRESETS.items():
        for params in itertools.product(*(choices[p] for p in spec.params)):
            yield word, params


def test_preset_count_is_the_image_count(ws):
    # the size check before enumeration must count exactly what is built
    for sig in (GRP, LAT, ws.signature("FLAT"), MIXED):
        for word, params in _preset_spellings(sig, (0, 1, 2)):
            spec = PRESETS[word]
            for op, n in sig.ops:
                assert spec.count(sig, op, n, params) == len(spec.images(sig, op, n, params)), (sig.name, word, params, op)


def test_size_is_the_member_count(ws, monkeypatch):
    monoids = [
        Monoid.preset(sig, word, *params)
        for sig in (GRP, LAT, ws.signature("FLAT"), MIXED)
        for word, params in _preset_spellings(sig, (0, 1))
        if (word, params[:1]) != ("zero_meet", (0,))  # no admissible image
    ]
    monoids += [Monoid.depth_slice(GRP, 3), Monoid.depth_slice(LAT, 2), *ws.monoids.values()]
    for m in monoids:
        assert m.size() == len(m.elements()), (m.sig.name, m.kind, m.params)
    # a preset is counted, and its coverage note written, without a member
    # list; an oversized one is refused with the message of `elements`
    refusals = {}
    for sig, depth in ((LAT, 3), (ws.signature("BOOL"), 1)):
        with pytest.raises(MonoidError) as err:
            Monoid.depth_slice(sig, depth).elements()
        refusals[sig] = str(err.value)
    monkeypatch.setattr(hql.hypersubs, "_elements", lambda m: pytest.fail("member list built"))
    assert Monoid.depth_slice(LAT, 2).size() == 40_804
    assert Monoid.depth_slice(LAT, 2).coverage_note() == "verified up to image depth 2 (40804 element(s))"
    assert Monoid.fundamental(LAT).coverage_note() == "exhaustive over 64 element(s)"
    for sig, depth in ((LAT, 3), (ws.signature("BOOL"), 1)):
        for call in (Monoid.size, Monoid.coverage_note):
            with pytest.raises(MonoidError) as err:
                call(Monoid.depth_slice(sig, depth))
            assert str(err.value) == refusals[sig]


def test_members_come_in_canonical_order(ws):
    # first-in-order witnesses rely on elements() being sorted by sort_key
    monoids = [
        Monoid.preset(sig, word, *params)
        for sig in (GRP, LAT, ws.signature("FLAT"), MIXED)
        for word, params in _preset_spellings(sig, (0, 1))
        if (word, params[:1]) != ("zero_meet", (0,))  # no admissible image
    ]
    monoids += [Monoid.depth_slice(LAT, 2), ws.monoid("lat_four"), ws.monoid("grp_pos"), ws.monoid("grp_proj")]
    for m in monoids:
        elems = m.elements()
        assert len(set(elems)) == len(elems)
        assert elems == tuple(sorted(elems, key=HyperSub.sort_key))


def test_depth_slice_membership_is_depth_bounded():
    m = Monoid.depth_slice(GRP, 1)
    assert m.contains(SWAP)
    deep = HyperSub.of(GRP, {"mul": mul(mul(x0, x1), x1)})
    assert not m.contains(deep)
    assert not m.is_exhaustive
    assert "image depth 1" in m.coverage_note()


def test_zero_meet_preset_validation():
    flat = Signature.of("FLAT", meet=2, zero=0, f=2)
    Monoid.zero_meet(flat, 1, "zero", "meet")
    with pytest.raises(MonoidError):
        Monoid.zero_meet(flat, 1, "missing", "meet")
    with pytest.raises(MonoidError):
        Monoid.zero_meet(flat, 1, "zero", "zero")


def test_zero_meet_images_fix_zero_and_meet_and_keep_variables():
    flat = Signature.of("FLAT", meet=2, zero=0, f=2)
    m = Monoid.zero_meet(flat, 1, "zero", "meet")
    from hql.terms import variables

    for sigma in m.elements():
        assert sigma.image("zero") == App("zero")
        assert sigma.image("meet") == App("meet", (x0, x1))
        img = sigma.image("f")
        assert not isinstance(img, Var)
        assert variables(img) == {0, 1}


def test_zero_meet_fundamental_images_are_permutations():
    flat = Signature.of("FLAT", meet=2, zero=0, f=2)
    m = Monoid.zero_meet_fundamental(flat, "zero", "meet")
    assert len(m.elements()) == 4  # heads {meet, f} x permutations of (x0, x1)
    for sigma in m.elements():
        assert sigma.is_symbol_renaming()


@settings(max_examples=80)
@given(hypersubs(GRP, max_depth=1))
def test_identity_is_two_sided_neutral(sigma):
    assert IDENT.compose(sigma) == sigma
    assert sigma.compose(IDENT) == sigma


@settings(max_examples=150)
@given(hypersubs(LAT), substitutions(LAT), terms(LAT, max_depth=4))
def test_hypersub_commutes_with_image_substitution(sigma, delta, t):
    # the exchange law the proof normaliser relies on: applying sigma after
    # delta equals applying the sigma-mapped delta after sigma
    from hql.terms import Substitution

    delta1 = Substitution.of({i: sigma.apply(img) for i, img in delta.bindings})
    assert sigma.apply(delta.apply(t)) == delta1.apply(sigma.apply(t))
