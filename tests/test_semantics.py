import itertools
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hql.algebras import AlgebraError, FiniteAlgebra, all_algebras
from hql.hypersubs import HyperSub, Monoid
from hql.semantics import (
    Theory,
    basic_terms,
    check_absorption,
    check_basic_preservation,
    check_solidity,
    classify_basic,
    hyper_satisfies,
    hyper_satisfies_theory,
    is_compatible,
    is_flat,
    is_zero_semilattice,
    satisfies,
    satisfies_theory,
)
from hql.terms import App, Equation, QuasiEquation, Signature, Var, variables

import _hyper_oracle as oracle
from strategies import GRP, LAT, MIXED, quasis

x0, x1, x2 = Var(0), Var(1), Var(2)


def replay(algebra, quasi, cex):
    """Counterexamples must reproduce: premises hold, conclusion split."""
    target = cex.sigma.apply_quasi(quasi) if cex.sigma is not None else quasi
    env = cex.assignment
    for p in target.premises:
        assert algebra.eval(p.lhs, env) == algebra.eval(p.rhs, env)
    lhs = algebra.eval(target.conclusion.lhs, env)
    rhs = algebra.eval(target.conclusion.rhs, env)
    assert (lhs, rhs) == (cex.lhs_value, cex.rhs_value)
    assert lhs != rhs


def test_z3_satisfies_cancellation(ws):
    z3 = ws.algebra("z3sub")
    assert satisfies(z3, ws.quasi("right_cancellation")[1]) is True
    assert satisfies(z3, ws.quasi("left_cancellation")[1]) is True


def test_trivial_equation_refuted_with_first_witness(ws):
    l2 = ws.algebra("l2")
    result = satisfies(l2, Equation(x0, x1))
    assert not result
    assert result.assignment == {0: 0, 1: 1}
    replay(l2, QuasiEquation((), Equation(x0, x1)), result)


def test_unsatisfiable_premise_is_vacuous(ws):
    b2 = ws.algebra("b2")
    assert satisfies(b2, ws.quasi("vacuous_example")[1]) is True


def test_trivial_monoid_reduces_to_classical(ws):
    z3 = ws.algebra("z3sub")
    trivial = Monoid.trivial(GRP)
    for name in ("right_cancellation", "left_cancellation"):
        quasi = ws.quasi(name)[1]
        assert hyper_satisfies(z3, quasi, trivial) == satisfies(z3, quasi)
    bad = Equation(App("mul", (x0, x1)), x0)
    hyper = hyper_satisfies(z3, bad, trivial)
    classical = satisfies(z3, bad)
    assert not hyper and not classical
    assert hyper.assignment == classical.assignment


def test_positive_hyperquasi_claims(ws):
    z3 = ws.algebra("z3sub")
    pos = ws.monoid("grp_pos")
    assert hyper_satisfies(z3, ws.quasi("right_cancellation")[1], pos) is True
    assert hyper_satisfies(z3, ws.quasi("left_cancellation")[1], pos) is True


def test_negative_hyperquasi_claim_witnesses_second_projection(ws):
    z3 = ws.algebra("z3sub")
    proj = ws.monoid("grp_proj")
    quasi = ws.quasi("right_cancellation")[1]
    result = hyper_satisfies(z3, quasi, proj)
    assert not result
    assert result.sigma.image("mul") == x1
    assert result.assignment == {0: 0, 1: 0, 2: 1}
    replay(z3, quasi, result)


def test_empty_theory_always_hyper_satisfied(ws):
    empty = Theory(GRP, ())
    z3 = ws.algebra("z3sub")
    assert hyper_satisfies_theory(z3, empty, ws.monoid("grp_proj")) is True


def test_theory_check_reports_first_item(ws):
    z3 = ws.algebra("z3sub")
    proj = ws.monoid("grp_proj")
    result = hyper_satisfies_theory(z3, ws.theory("cancellation"), proj)
    assert not result
    assert result.item == 0
    assert result.sigma.image("mul") == x1


def test_lattice_laws_hold_under_the_four(ws):
    l2 = ws.algebra("l2")
    assert hyper_satisfies_theory(l2, ws.theory("lattice_laws"), ws.monoid("lat_four")) is True


def test_wrong_distributivity_shape_fails(ws):
    l2 = ws.algebra("l2")
    alt = ws.quasi("distrib_alt")[1]
    classical = satisfies(l2, alt)
    assert not classical and classical.assignment == {0: 0, 1: 0, 2: 1}
    hyper = hyper_satisfies(l2, alt, ws.monoid("lat_four"))
    assert not hyper
    replay(l2, alt, hyper)


def test_full_fundamental_monoid_breaks_commutativity(ws):
    # repetition-collapsing images turn f(x, y) = f(y, x) into x = y, so the
    # lattice laws do not survive the full fundamental enumeration; the
    # four-element fixture monoid is where they do hold.
    l2 = ws.algebra("l2")
    result = hyper_satisfies_theory(l2, ws.theory("lattice_laws"), ws.monoid("lat_fund"))
    assert not result
    assert result.item == 1
    img = result.sigma.image("meet")
    assert len(variables(img)) == 1  # a collapsing image


def test_boolean_duality_is_fundamental_hyperidentity(ws):
    b2 = ws.algebra("b2")
    assert hyper_satisfies(b2, ws.quasi("duality_law")[1], ws.monoid("bool_fund")) is True


def test_hyper_satisfaction_monotone_in_image_depth(ws):
    l2 = ws.algebra("l2")
    outcomes = {}
    for name in ("idem_law", "comm_law", "assoc_law", "distrib_law"):
        quasi = ws.quasi(name)[1]
        results = [
            hyper_satisfies(l2, quasi, Monoid.depth_slice(LAT, d)) is True
            for d in (0, 1, 2)
        ]
        # once refuted at some depth, deeper slices stay refuted
        for shallow, deep in zip(results, results[1:]):
            assert shallow or not deep
        outcomes[name] = results
    # the depth-0 slice contains the projections, which collapse commutativity
    assert outcomes["comm_law"][0] is False
    assert outcomes["idem_law"] == [True, True, True]


def test_solidity_trivial_monoid_is_identity_operator(ws):
    base = ws.theory("lattice_laws")
    l2 = ws.algebra("l2")
    assert check_solidity(base, [l2], Monoid.trivial(LAT)) is True


def test_solidity_requires_witness_to_model_base(ws):
    base = ws.theory("lattice_laws")
    chain3 = ws.algebra("chain3")
    l2 = ws.algebra("l2")
    assert satisfies_theory(chain3, base) is True
    assert check_solidity(base, [l2, chain3], Monoid.trivial(LAT)) is True
    bad_base = Theory(LAT, (QuasiEquation((), Equation(x0, x1)),))
    with pytest.raises(AlgebraError):
        check_solidity(bad_base, [l2], Monoid.trivial(LAT))


def test_flat_solidity_under_zero_meet_monoids(ws):
    f3 = ws.algebra("f3")
    base = ws.theory("flat_base")
    assert check_solidity(base, [f3], ws.monoid("flat_zm")) is True
    assert check_solidity(base, [f3], ws.monoid("flat_zmf")) is True


def test_solidity_failure_reported_per_sigma(ws):
    flat = ws.signature("FLAT")
    f3 = ws.algebra("f3")
    base = ws.theory("flat_base")
    # an image dropping x1 makes the derived f ignore its second argument,
    # so zero plugged there no longer absorbs
    collapse = HyperSub.of(
        flat,
        {
            "meet": App("meet", (x0, x1)),
            "zero": App("zero"),
            "f": App("f", (x0, x0)),
        },
    )
    monoid = Monoid.explicit(flat, [HyperSub.identity(flat), collapse])
    report = check_solidity(base, [f3], monoid)
    assert not report
    assert report.failures[0].witness == "f3"
    assert report.failures[0].sigma == collapse


def test_tautological_base_survives_depth_slice(ws):
    eq = Equation(App("meet", (x0, x1)), App("meet", (x0, x1)))
    base = Theory(LAT, (QuasiEquation((), eq),))
    l2 = ws.algebra("l2")
    assert check_solidity(base, [l2], Monoid.depth_slice(LAT, 1)) is True


def test_semantic_bridge_hyper_iff_derived(ws):
    # monoid-hypersatisfaction of e is classical satisfaction in every
    # derived algebra; exhaustive over the fixture items and monoids
    cases = [
        ("z3sub", "grp_pos", ws.theory("cancellation")),
        ("l2", "lat_four", ws.theory("lattice_laws")),
        ("f3", "flat_zmf", ws.theory("flat_base")),
    ]
    for algebra_name, monoid_name, theory in cases:
        algebra = ws.algebra(algebra_name)
        monoid = ws.monoid(monoid_name)
        for item in theory.items:
            lhs = hyper_satisfies(algebra, item, monoid) is True
            rhs = all(
                satisfies(algebra.derived(sigma), item) is True
                for sigma in monoid.elements()
            )
            assert lhs == rhs


def test_solidity_iff_hyper_satisfaction_for_single_witness(ws):
    f3 = ws.algebra("f3")
    base = ws.theory("flat_base")
    for monoid_name in ("flat_zmf", "flat_zm"):
        monoid = ws.monoid(monoid_name)
        assert (check_solidity(base, [f3], monoid) is True) == (
            hyper_satisfies_theory(f3, base, monoid) is True
        )


# -- differential: one verdict per derived algebra vs the per-sigma oracle ----


@st.composite
def random_algebras(draw, sig):
    size = draw(st.integers(1, 3))
    tables = {
        op: draw(st.lists(st.integers(0, size - 1), min_size=size**n, max_size=size**n))
        for op, n in sig.ops
    }
    return FiniteAlgebra.of(sig, [str(i) for i in range(size)], tables, name="a")


def _dropping_monoid(sig):
    """A small monoid whose members have images that drop variables."""
    generators = {
        GRP: [{"mul": x0}, {"mul": x1}],
        LAT: [{"meet": x0, "join": App("meet", (x1, x1))}],
        MIXED: [
            {"f": App("g", (x0,)), "g": App("g", (x0,)), "c": App("c")},
            {"f": x1, "g": x0, "c": App("c")},
        ],
    }[sig]
    return Monoid.generated(sig, [HyperSub.of(sig, g) for g in generators])


# depth(2) stays with GRP (38 members): over LAT it has 40,804 and over
# MIXED 233,766, too many for the per-sigma oracle on every example.
_DEPTHS = {GRP: (0, 1, 2), LAT: (0, 1), MIXED: (0, 1)}
_MONOIDS = {
    sig: [Monoid.depth_slice(sig, d) for d in depths]
    + [Monoid.fundamental(sig), _dropping_monoid(sig)]
    for sig, depths in _DEPTHS.items()
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hyper_checks_match_per_sigma_oracle(data):
    sig = data.draw(st.sampled_from([GRP, LAT, MIXED]))
    algebra = data.draw(random_algebras(sig))
    monoid = data.draw(st.sampled_from(_MONOIDS[sig]))
    items = data.draw(st.lists(quasis(sig, max_depth=2, max_premises=2), min_size=1, max_size=3))
    for item in items:
        assert hyper_satisfies(algebra, item, monoid) == oracle.hyper_satisfies(algebra, item, monoid)
    theory = Theory(sig, tuple(items))
    assert hyper_satisfies_theory(algebra, theory, monoid) == oracle.hyper_satisfies_theory(
        algebra, theory, monoid
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_solidity_matches_per_sigma_oracle(data):
    sig = data.draw(st.sampled_from([GRP, LAT, MIXED]))
    drawn = data.draw(st.lists(random_algebras(sig), min_size=1, max_size=2))
    witnesses = [replace(w, name=f"w{i}") for i, w in enumerate(drawn)]
    monoid = data.draw(st.sampled_from(_MONOIDS[sig]))
    items = data.draw(st.lists(quasis(sig, max_depth=2, max_premises=2), max_size=4))
    bases = Theory(sig, tuple(q for q in items if all(satisfies(w, q) is True for w in witnesses)))
    got = check_solidity(bases, witnesses, monoid)
    want = oracle.check_solidity(bases, witnesses, monoid)
    if want is True:
        assert got is True
        return
    assert got.failures == want.failures
    details = [f.detail for f in got.failures]
    assert len({id(d) for d in details}) == len({id(d.assignment) for d in details}) == len(details)


def test_signature_mismatch_is_an_error(ws):
    l2, z3 = ws.algebra("l2"), ws.algebra("z3sub")
    grp_proj, cancellation = ws.monoid("grp_proj"), ws.theory("cancellation")
    with pytest.raises(AlgebraError, match="algebra l2 is over LAT, theory cancellation is over GRP"):
        hyper_satisfies_theory(l2, cancellation, grp_proj)
    with pytest.raises(AlgebraError, match="algebra l2 is over LAT, monoid grp_proj is over GRP"):
        hyper_satisfies(l2, ws.quasi("right_cancellation")[1], grp_proj)
    with pytest.raises(AlgebraError, match="theory cancellation is over GRP, witness l2 is over LAT"):
        check_solidity(cancellation, [z3, l2], grp_proj)
    with pytest.raises(AlgebraError, match="theory cancellation is over GRP, monoid lat_four is over LAT"):
        check_solidity(cancellation, [z3], ws.monoid("lat_four"))


# -- zero-semilattice / flat checks -------------------------------------------


def test_f3_is_zero_semilattice(ws):
    assert is_zero_semilattice(ws.algebra("f3"), "meet", "zero") is True


def test_broken_absorption_detected(ws):
    result = is_zero_semilattice(ws.algebra("f3_bad"), "meet", "zero")
    assert not result
    assert result.label == "absorption f@1"
    assert result.assignment == {0: 1}


def test_one_element_algebra_is_degenerate_zero_semilattice():
    sig = Signature.of("FLAT1", meet=2, zero=0)
    algebra = FiniteAlgebra.of(sig, ["0"], {"meet": [0], "zero": [0]})
    assert is_zero_semilattice(algebra, "meet", "zero") is True
    assert is_flat(algebra, "meet", "zero") is True


def test_f3_is_flat_chain_is_not(ws):
    assert is_flat(ws.algebra("f3"), "meet", "zero") is True
    result = is_flat(ws.algebra("chain3f"), "meet", "zero")
    assert not result
    assert result.assignment == {0: 1, 1: 2}  # m and 1 meet to m


def test_f3_is_compatible(ws):
    assert is_compatible(ws.algebra("f3"), "meet", "zero") is True


def test_compatibility_violation_detected():
    sig = Signature.of("FLAT", meet=2, zero=0, f=2)
    # f(a, a) = a but f(a meet a, a) table tampered via non-meet-respecting op
    tables = {
        "meet": [0, 0, 0, 0, 1, 0, 0, 0, 2],
        "zero": [0],
        "f": [0, 0, 0, 0, 1, 2, 0, 2, 2],
    }
    algebra = FiniteAlgebra.of(sig, ["0", "a", "b"], tables)
    result = is_compatible(algebra, "meet", "zero")
    assert not result
    assert result.label.startswith("compatibility f@")


# -- basic terms ---------------------------------------------------------------


POOL = list(range(100, 120))


def test_basic_depth_zero(ws):
    flat = ws.signature("FLAT")
    assert list(basic_terms(flat, 0, 0, POOL)) == [x0]


def test_basic_depth_one_count(ws):
    flat = ws.signature("FLAT")
    ts = list(basic_terms(flat, 0, 1, POOL))
    assert len(ts) == 4  # two binary ops x two spine positions
    assert len(set(ts)) == 4


def test_basic_depth_two_count(ws):
    flat = ws.signature("FLAT")
    ts = list(basic_terms(flat, 0, 2, POOL))
    assert len(ts) == 16
    assert len(set(ts)) == 16


def test_unary_signature_single_basic_term():
    sig = Signature.of("U", g=1)
    ts = list(basic_terms(sig, 0, 2, POOL))
    assert ts == [App("g", (App("g", (x0,)),))]


def test_generated_basic_terms_classify_back(ws):
    flat = ws.signature("FLAT")
    for depth in range(4):
        for t in basic_terms(flat, 0, depth, POOL):
            assert classify_basic(t, 0) == depth


def test_classifier_rejects_non_basic(ws):
    assert classify_basic(App("meet", (x0, x0)), 0) is None  # x on both sides
    assert classify_basic(App("meet", (x1, x2)), 0) is None  # no spine
    assert classify_basic(App("zero"), 0) is None
    # repeated side variable across levels
    bad = App("meet", (App("meet", (x0, x1)), x1))
    assert classify_basic(bad, 0) is None


def test_preservation_identity_and_permutation(ws):
    flat = ws.signature("FLAT")
    assert check_basic_preservation(HyperSub.identity(flat), flat, 3) is True
    perm = HyperSub.of(
        flat,
        {"meet": App("meet", (x0, x1)), "zero": App("zero"), "f": App("meet", (x1, x0))},
    )
    assert check_basic_preservation(perm, flat, 4) is True


def test_preservation_guards_precondition(ws):
    flat = ws.signature("FLAT")
    nonfund = HyperSub.of(
        flat,
        {
            "meet": App("meet", (App("meet", (x0, x1)), x1)),
            "zero": App("zero"),
            "f": App("f", (x0, x1)),
        },
    )
    with pytest.raises(ValueError):
        check_basic_preservation(nonfund, flat, 2)


def test_absorption_exhaustive_depth_two(ws):
    assert check_absorption(ws.algebra("f3"), "meet", "zero", 2) is True


def test_absorption_precondition(ws):
    with pytest.raises(AlgebraError):
        check_absorption(ws.algebra("f3_bad"), "meet", "zero", 2)


def test_absorption_depth_zero_is_vacuous(ws):
    # depth-0 non-variable terms are constants: nothing to plug into
    assert check_absorption(ws.algebra("f3"), "meet", "zero", 0) is True
