import hashlib

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from hql.hypersubs import HyperSub, Monoid
from hql.proofs import (
    Compat,
    Cut,
    Ext,
    Hyp,
    HypSub,
    Logic,
    Mp,
    Proof,
    ProofBuilder,
    ProofError,
    Refl,
    SaturationResult,
    Subst,
    Sym,
    TermCompat,
    Trans,
    check_proof,
    derive_term_compat,
    from_q_proof,
    hyperclose,
    hyperclose_detailed,
    is_normal,
    map_proof,
    normalize,
    saturate,
    strip_to_q,
)
from hql.semantics import Theory
from hql.terms import App, Equation, QuasiEquation, Substitution, Var

import _saturate_oracle
from proofgen import random_proof, random_term
from strategies import GRP, LAT, MIXED, quasis

x0, x1, x2 = Var(0), Var(1), Var(2)


def term_size(term) -> int:
    if isinstance(term, Var):
        return 1
    return 1 + sum(term_size(a) for a in term.args)


def mul(a, b):
    return App("mul", (a, b))


IDENT = HyperSub.identity(GRP)
SWAP = HyperSub.of(GRP, {"mul": mul(x1, x0)})
POS = Monoid.explicit(GRP, [IDENT, SWAP])

CANCEL = QuasiEquation((Equation(mul(x0, x2), mul(x1, x2)),), Equation(x0, x1))
THEORY = Theory(GRP, (CANCEL,), name="cancel")
FACT = Theory(GRP, (QuasiEquation((), Equation(mul(x0, x0), x0)),), name="fact")


def proof_of(theory, logic, *lines):
    return Proof(theory, logic, tuple(lines))


def test_single_hypothesis_line():
    check_proof(proof_of(THEORY, Logic.q(), (CANCEL, Hyp(0))))


def test_symmetry_axiom_line():
    stated = QuasiEquation((Equation(x0, x1),), Equation(x1, x0))
    check_proof(proof_of(THEORY, Logic.q(), (stated, Sym(x0, x1))))


def test_stated_line_must_match_rule_result():
    wrong = QuasiEquation((Equation(x0, x1),), Equation(x0, x1))
    with pytest.raises(ProofError) as err:
        check_proof(proof_of(THEORY, Logic.q(), (wrong, Sym(x0, x1))))
    assert err.value.line == 0


def test_premise_order_is_set_semantics():
    builder = ProofBuilder(THEORY, Logic.q())
    builder.add(Trans(x0, x1, x2))
    produced = builder.statement(0)
    reordered = QuasiEquation(tuple(reversed(produced.premises)), produced.conclusion)
    check_proof(proof_of(THEORY, Logic.q(), (reordered, Trans(x0, x1, x2))))


def test_cut_requires_minor_conclusion_among_major_premises():
    minor = (QuasiEquation((Equation(x0, x1),), Equation(x1, x0)), Sym(x0, x1))
    major = (QuasiEquation((Equation(x1, x2),), Equation(x2, x1)), Sym(x1, x2))
    bad = QuasiEquation((Equation(x0, x1), Equation(x1, x2)), Equation(x2, x1))
    with pytest.raises(ProofError) as err:
        check_proof(
            proof_of(THEORY, Logic.q(), minor, major, (bad, Cut(major=1, minor=0)))
        )
    assert "cut" in err.value.reason


def test_cut_merges_premises():
    builder = ProofBuilder(THEORY, Logic.q())
    minor = builder.add(Sym(x0, x1))  # {x0=x1} -> x1=x0
    trans = builder.add(Trans(x1, x0, x2))  # {x1=x0, x0=x2} -> x1=x2
    cut = builder.add(Cut(major=trans, minor=minor))
    assert builder.statement(cut) == QuasiEquation(
        (Equation(x0, x1), Equation(x0, x2)), Equation(x1, x2)
    )
    check_proof(builder.proof())


def test_mp_needs_premise_free_fact():
    builder = ProofBuilder(FACT, Logic.q())
    fact = builder.add(Hyp(0))
    sym = builder.add(Sym(mul(x0, x0), x0))
    mp = builder.add(Mp(fact=fact, implication=sym))
    assert builder.statement(mp) == QuasiEquation((), Equation(x0, mul(x0, x0)))
    check_proof(builder.proof())
    with pytest.raises(ProofError):
        builder.add(Mp(fact=sym, implication=fact))


def test_forward_reference_rejected():
    stated = QuasiEquation((Equation(x0, x1),), Equation(x1, x0))
    with pytest.raises(ProofError):
        check_proof(proof_of(THEORY, Logic.q(), (stated, Subst(0, Substitution()))))


def test_hypsub_rejected_in_plain_logic():
    lines = ((CANCEL, Hyp(0)), (SWAP.apply_quasi(CANCEL), HypSub(0, SWAP)))
    with pytest.raises(ProofError) as err:
        check_proof(proof_of(THEORY, Logic.q(), *lines))
    assert "not part" in err.value.reason
    check_proof(proof_of(THEORY, Logic.hq(), *lines))
    check_proof(proof_of(THEORY, Logic.mhq(POS), *lines))


def test_hypsub_outside_monoid_rejected():
    proj = HyperSub.of(GRP, {"mul": x0})
    lines = ((CANCEL, Hyp(0)), (proj.apply_quasi(CANCEL), HypSub(0, proj)))
    with pytest.raises(ProofError) as err:
        check_proof(proof_of(THEORY, Logic.mhq(POS), *lines))
    assert "monoid" in err.value.reason


def test_compat_nullary_gives_premise_free_line():
    theory = Theory(MIXED, (QuasiEquation((), Equation(App("c"), App("c"))),))
    builder = ProofBuilder(theory, Logic.q())
    line = builder.add(Compat("c", (), ()))
    assert builder.statement(line) == QuasiEquation((), Equation(App("c"), App("c")))


# -- hyperclosure ---------------------------------------------------------------


def test_hyperclose_trivial():
    closed = hyperclose(THEORY, Monoid.trivial(GRP))
    assert closed.items == THEORY.items


def test_hyperclose_adds_swapped_item():
    closed = hyperclose(THEORY, POS)
    assert len(closed.items) == 2
    assert SWAP.apply_quasi(CANCEL) in closed.items
    # deterministic order: item-major, monoid members in canonical order
    assert closed.items == hyperclose(THEORY, POS).items
    assert closed.items[0] == CANCEL


def test_hyperclose_size_bound():
    for monoid in (POS, Monoid.fundamental(GRP)):
        closed = hyperclose(THEORY, monoid)
        assert len(closed.items) <= len(THEORY.items) * len(monoid.elements())


def test_hyperclose_detailed_provenance():
    for quasi, item, sigma in hyperclose_detailed(THEORY, POS):
        assert sigma.apply_quasi(THEORY.items[item]) == quasi


# -- generalised compatibility expansion ----------------------------------------


def check_expansion(pattern, lhs, rhs, theory=THEORY):
    proof = derive_term_compat(pattern, lhs, rhs, theory)
    check_proof(proof)
    expected = ProofBuilder(theory, Logic.q())
    want = expected.statement(expected.add(TermCompat(pattern, tuple(lhs), tuple(rhs))))
    assert proof.conclusion().set_eq(want)
    assert len(proof.lines) <= 2 * term_size(pattern) + len(lhs) + 3
    return proof


def test_expansion_variable_base_case():
    proof = check_expansion(x0, (mul(x0, x1), x2), (x1, x2))
    justs = {type(j).__name__ for _, j in proof.lines}
    assert "Sym" in justs and "Cut" in justs


def test_expansion_single_operation():
    check_expansion(mul(x0, x1), (x0, x1), (x1, x0))


def test_expansion_nested_pattern():
    sig = MIXED
    theory = Theory(sig, (QuasiEquation((), Equation(App("c"), App("c"))),))
    pattern = App("f", (App("g", (x0,)), x1))
    check_expansion(pattern, (App("c"), x0), (App("g", (App("c"),)), x1), theory)


def test_expansion_constant_pattern():
    sig = MIXED
    theory = Theory(sig, (QuasiEquation((), Equation(App("c"), App("c"))),))
    pattern = App("f", (App("c"), x0))
    check_expansion(pattern, (x0,), (x1,), theory)


def test_expansion_random(subtests=None):
    import random

    for seed in range(50):
        rng = random.Random(seed)
        pattern = random_term(rng, GRP, n_vars=2, depth=3)
        if isinstance(pattern, Var):
            pattern = mul(pattern, x1)
        lhs = tuple(random_term(rng, GRP, 3, 2) for _ in range(2))
        rhs = tuple(random_term(rng, GRP, 3, 2) for _ in range(2))
        check_expansion(pattern, lhs, rhs)


# -- normalisation ---------------------------------------------------------------


def test_normalize_already_normal_keeps_conclusion():
    builder = ProofBuilder(THEORY, Logic.mhq(POS))
    h = builder.add(Hyp(0))
    builder.add(HypSub(h, SWAP))
    proof = builder.proof()
    normal = normalize(proof)
    check_proof(normal)
    assert is_normal(normal)
    assert normal.conclusion().set_eq(proof.conclusion())
    shapes = [type(j).__name__ for _, j in normal.lines]
    assert shapes == ["Hyp", "HypSub"]


def test_normalize_subst_commutation():
    # hypersubstitution after substitution becomes substitution-by-images
    # after the hypersubstitution
    delta = Substitution.of({2: mul(x0, x0)})
    builder = ProofBuilder(THEORY, Logic.mhq(POS))
    h = builder.add(Hyp(0))
    s = builder.add(Subst(h, delta))
    builder.add(HypSub(s, SWAP))
    proof = builder.proof()
    normal = normalize(proof)
    check_proof(normal)
    assert is_normal(normal)
    assert normal.conclusion().set_eq(proof.conclusion())
    kinds = [type(j).__name__ for _, j in normal.lines]
    assert kinds == ["Hyp", "HypSub", "Subst"]
    subst_just = normal.lines[-1][1]
    assert subst_just.delta == Substitution.of({2: SWAP.apply(mul(x0, x0))})


def test_normalize_cut_commutation():
    builder = ProofBuilder(THEORY, Logic.mhq(POS))
    h = builder.add(Hyp(0))
    minor = builder.add(Sym(mul(x0, x2), mul(x1, x2)))
    alpha = builder.statement(minor).conclusion
    major = builder.add(Ext(h, alpha))
    cut = builder.add(Cut(major=major, minor=minor))
    builder.add(HypSub(cut, SWAP))
    proof = builder.proof()
    normal = normalize(proof)
    check_proof(normal)
    assert is_normal(normal)
    assert normal.conclusion().set_eq(proof.conclusion())


def test_normalize_axiom_cases():
    builder = ProofBuilder(THEORY, Logic.mhq(POS))
    r = builder.add(Refl(mul(x0, x1)))
    builder.add(HypSub(r, SWAP))
    proof = builder.proof()
    normal = normalize(proof)
    check_proof(normal)
    assert [type(j).__name__ for _, j in normal.lines] == ["Refl"]
    assert normal.lines[0][1].term == mul(x1, x0)


def test_normalize_compat_becomes_term_compat():
    builder = ProofBuilder(THEORY, Logic.mhq(POS))
    c = builder.add(Compat("mul", (x0, x1), (x1, x2)))
    builder.add(HypSub(c, SWAP))
    proof = builder.proof()
    normal = normalize(proof)
    check_proof(normal)
    assert [type(j).__name__ for _, j in normal.lines] == ["TermCompat"]
    assert normal.conclusion().set_eq(proof.conclusion())
    expanded = normalize(proof, expand_compat=True)
    check_proof(expanded)
    assert all(not isinstance(j, TermCompat) for _, j in expanded.lines)
    assert expanded.conclusion().set_eq(proof.conclusion())


def test_normalize_merges_stacked_hypersubs():
    builder = ProofBuilder(THEORY, Logic.mhq(POS))
    h = builder.add(Hyp(0))
    a = builder.add(HypSub(h, SWAP))
    builder.add(HypSub(a, SWAP))
    proof = builder.proof()
    normal = normalize(proof)
    check_proof(normal)
    # swap o swap is the identity, so no hypersubstitution step survives
    assert normal.conclusion().set_eq(CANCEL)
    kinds = [type(j).__name__ for _, j in normal.lines]
    assert kinds == ["Hyp"]


def test_normalize_composite_escaping_slice_monoid():
    deep = HyperSub.of(GRP, {"mul": mul(mul(x0, x1), x1)})
    slice2 = Monoid.depth_slice(GRP, 2)
    builder = ProofBuilder(THEORY, Logic.mhq(slice2))
    h = builder.add(Hyp(0))
    a = builder.add(HypSub(h, deep))
    builder.add(HypSub(a, deep))
    proof = builder.proof()
    check_proof(proof)  # each step individually inside the slice
    with pytest.raises(ProofError) as err:
        normalize(proof)
    assert "escape" in err.value.reason


def test_normalize_long_subst_chain():
    # 1,500 substitutions between the hypothesis and the hypersubstitution:
    # deeper than the interpreter's recursion limit
    swap_vars = Substitution.of({0: x1, 1: x0})
    builder = ProofBuilder(THEORY, Logic.mhq(POS))
    line = builder.add(Hyp(0))
    for _ in range(1500):
        line = builder.add(Subst(line, swap_vars))
    builder.add(HypSub(line, SWAP))
    proof = builder.proof()
    check_proof(proof)
    normal = normalize(proof)
    check_proof(normal)
    assert is_normal(normal)
    assert normal.conclusion().set_eq(proof.conclusion())
    kinds = [type(j).__name__ for _, j in normal.lines]
    assert kinds == ["Hyp", "HypSub"] + ["Subst"] * 1500


def test_strip_to_q_and_back():
    delta = Substitution.of({0: mul(x0, x1)})
    builder = ProofBuilder(THEORY, Logic.mhq(POS))
    h = builder.add(Hyp(0))
    s = builder.add(HypSub(h, SWAP))
    builder.add(Subst(s, delta))
    proof = builder.proof()
    normal = normalize(proof)
    closed = hyperclose(THEORY, POS)
    qproof = strip_to_q(normal, closed)
    assert qproof.logic.kind == "Q"
    check_proof(qproof)
    assert qproof.conclusion().set_eq(proof.conclusion())
    back = from_q_proof(qproof, THEORY, POS)
    assert back.logic.kind == "MHQ"
    check_proof(back)
    assert back.conclusion().set_eq(proof.conclusion())


def test_map_proof_is_linewise_image():
    proof = random_proof(7, THEORY, Logic.mhq(POS), steps=8)
    check_proof(proof)
    mapped = map_proof(proof, SWAP)
    check_proof(mapped)
    assert mapped.conclusion().set_eq(SWAP.apply_quasi(proof.conclusion()))
    assert len(mapped.lines) == 2 * len(proof.lines)


def test_map_proof_requires_membership():
    proof = random_proof(3, THEORY, Logic.mhq(POS), steps=4)
    proj = HyperSub.of(GRP, {"mul": x0})
    with pytest.raises(ProofError):
        map_proof(proof, proj)


def test_checker_rejects_single_subterm_flip():
    import random

    rejected = 0
    for seed in range(40):
        proof = random_proof(seed, THEORY, Logic.mhq(POS), steps=10)
        rng = random.Random(seed)
        i = rng.randrange(len(proof.lines))
        quasi, just = proof.lines[i]
        eqs = (*quasi.premises, quasi.conclusion)
        k = rng.randrange(len(eqs))
        target = eqs[k]
        flipped = Equation(mul(target.rhs, target.lhs), target.rhs)
        if flipped == target:
            continue
        new_eqs = list(eqs)
        new_eqs[k] = flipped
        mutated = QuasiEquation(tuple(new_eqs[:-1]), new_eqs[-1])
        if mutated.set_eq(quasi):
            continue
        lines = list(proof.lines)
        lines[i] = (mutated, just)
        try:
            check_proof(Proof(proof.theory, proof.logic, tuple(lines)))
        except ProofError:
            rejected += 1
        else:
            raise AssertionError(f"mutated proof accepted (seed {seed}, line {i})")
        rejected += 0
    assert rejected >= 30


# -- saturation ------------------------------------------------------------------


def test_saturate_empty_theory_axioms_only():
    empty = Theory(GRP, ())
    result = saturate(empty, Monoid.trivial(GRP), term_depth_cap=0, premise_count=2, iterations=2)
    assert result.theory.items
    kinds = {type(j).__name__ for _, j in result.proof.lines}
    assert kinds <= {"Refl", "Sym", "Trans", "Compat", "Cut", "Subst", "Ext", "HypSub"}
    for item in result.theory.items:
        # axiom instances over x0, x1 only at depth cap 0
        assert all(
            term_size(t) <= 3
            for eq in (*item.premises, item.conclusion)
            for t in (eq.lhs, eq.rhs)
        )
    check_proof(result.proof)


def test_saturate_contains_swapped_item():
    result = saturate(THEORY, POS, term_depth_cap=1, premise_count=2, iterations=1)
    swapped = SWAP.apply_quasi(CANCEL)
    keys = {item.key() for item in result.theory.items}
    assert swapped.key() in keys
    check_proof(result.proof)
    assert any(quasi.set_eq(swapped) for quasi, _ in result.proof.lines)


def test_saturate_idempotent_at_fixpoint():
    caps = dict(term_depth_cap=0, premise_count=1, iterations=10)
    first = saturate(Theory(GRP, ()), Monoid.trivial(GRP), **caps)
    assert not first.truncated
    again = saturate(first.theory, Monoid.trivial(GRP), **caps)
    assert not again.truncated
    assert [i.key() for i in again.theory.items] == [i.key() for i in first.theory.items]


def test_saturate_truncation_flag():
    result = saturate(THEORY, POS, term_depth_cap=1, premise_count=3, iterations=1)
    assert result.truncated  # one round cannot reach the fixpoint here
    assert result.truncated_by == "iterations"
    more = saturate(THEORY, POS, term_depth_cap=1, premise_count=3, iterations=2)
    assert len(more.theory.items) >= len(result.theory.items)


def test_saturate_names_the_item_cap():
    result = saturate(THEORY, POS, term_depth_cap=1, premise_count=3, iterations=1, max_items=200)
    assert len(result.theory.items) == 200
    assert result.truncated and result.truncated_by == "items"


# (monoid, term depth, premises, iterations, max_items) -> item count,
# truncated_by, sha256 of the rendered proof and theory files; the last row
# is the CLI defaults
PINNED_SATURATIONS = [
    (("grp_pos", 1, 1, 8, 2000), 153, None, "b7842b6ac7ca39ec05becfd69d17026859059faf3b93496d2513885d8427d589"),
    (("grp_pos", 1, 2, 2, 2000), 2000, "items", "40425f177c414b87eef886caaf130ee7372379ebf0dc1469379dbe56289eac42"),
    (("grp_pos", 1, 2, 8, 300), 300, "items", "e9040e6cb8e3511509368688b7f80c53eae859029c42dbdeace76a1836266a0a"),
    (("grp_pos", 2, 2, 2, 500), 500, "items", "99e999a1cf42dd79ca17a198dfad9b76b1d39b01c4df1aa23d89fe0b928a43ff"),
    (("grp_proj", 1, 1, 8, 2000), 216, None, "b5a8db73788ca0c268ac60811efcffdd360742d7314858cc484023f29e9d0acc"),
    (("grp_proj", 1, 3, 1, 2000), 816, "iterations", "9287ffce63e17e140e788ead960b59a3eee4f6fc6678bf94d2f355ad09b84988"),
    (("grp_proj", 1, 1, 2, 50), 50, "items", "1ab7b8d74064c05d7d40789952790950d8a4079c7f45d81754748d2ef5f46fc5"),
    (("grp_pos", 3, 4, 3, 2000), 2000, "items", "78e40d85f3b4c53dde9155207ea5eeede7ba7f9c44da0785ffb720bdc2d82c6d"),
]


def test_saturate_output_is_pinned(ws):
    # items, their order, the proof lines and the stopping cap, byte for byte
    from hql.dsl import render_proof_file, render_theory_file

    theory = ws.theory("cancellation_demo")
    for (monoid, *caps), count, truncated_by, digest in PINNED_SATURATIONS:
        result = saturate(theory, ws.monoid(monoid), *caps)
        text = render_proof_file(result.proof) + render_theory_file(result.theory)
        assert (len(result.theory.items), result.truncated_by) == (count, truncated_by), (monoid, caps)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (monoid, caps)
        check_proof(result.proof)


@settings(max_examples=150, deadline=None)
@given(
    items=st.lists(quasis(GRP, n_vars=3, max_depth=2, max_premises=3), max_size=3),
    monoid=st.sampled_from(["grp_pos", "grp_proj", "trivial"]),
    caps=st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(1, 4), st.integers(20, 300)),
)
# premise cap 0, and a hypothesis with more premises than the cap
@example(items=[CANCEL], monoid="grp_proj", caps=(1, 0, 3, 300))
# compatibility under depth caps 0 and 1: `saturate` generates none at cap
# 0, and at cap 1 only that over atoms
@example(items=[CANCEL], monoid="grp_pos", caps=(0, 2, 2, 300))
@example(items=[CANCEL], monoid="grp_pos", caps=(1, 2, 2, 300))
@example(items=[QuasiEquation((Equation(x0, x1), Equation(x1, x2)), Equation(x0, x2))],
         monoid="grp_pos", caps=(1, 1, 4, 300))
def test_saturate_matches_oracle(ws, items, monoid, caps):
    # the items, their order, the proof lines and the stopping cap
    theory = Theory(GRP, tuple(items))
    m = Monoid.trivial(GRP) if monoid == "trivial" else ws.monoid(monoid)
    got, want = saturate(theory, m, *caps), _saturate_oracle.saturate(theory, m, *caps)
    assert got.theory.items == want.theory.items
    assert got.proof.lines == want.proof.lines
    assert got.truncated_by == want.truncated_by


def test_saturate_states_each_line_once(ws, monkeypatch):
    # the README saturation: each candidate's statement is built once, by
    # the admission loop, and the proof lines need no second statement
    import hql.proofs

    calls = 0
    produced = hql.proofs.produced_statement

    def counting(*args):
        nonlocal calls
        calls += 1
        return produced(*args)

    monkeypatch.setattr(hql.proofs, "produced_statement", counting)
    theory, monoid = ws.theory("cancellation_demo"), ws.monoid("grp_pos")
    result = saturate(theory, monoid, 1, 1, 8)
    assert (len(result.theory.items), calls) == (153, 1538)
    builder = ProofBuilder(theory, Logic.mhq(monoid))
    for _, j in result.proof.lines:
        builder.add(j)
    assert builder.proof().lines == result.proof.lines


def test_saturate_monotone_in_caps():
    small = saturate(THEORY, POS, term_depth_cap=0, premise_count=1, iterations=1)
    big = saturate(THEORY, POS, term_depth_cap=1, premise_count=2, iterations=1)
    small_keys = {i.key() for i in small.theory.items}
    big_keys = {i.key() for i in big.theory.items}
    assert small_keys <= big_keys


def test_soundness_against_three_element_models():
    # every derivable line is hyper-satisfied in every three-element model
    # of the theory (the bulk acceptance run covers sizes one and two)
    from hql.algebras import all_algebras
    from hql.semantics import hyper_satisfies, hyper_satisfies_theory

    models = [
        algebra
        for algebra in all_algebras(GRP, 3)
        if hyper_satisfies_theory(algebra, THEORY, POS) is True
    ]
    assert len(models) == 12  # the 3x3 latin squares
    cache = {}
    for seed in range(0, 40):
        proof = random_proof(seed, THEORY, Logic.mhq(POS), steps=8, max_depth=5)
        check_proof(proof)
        for quasi, _ in proof.lines:
            for m_idx, model in enumerate(models):
                key = (m_idx, quasi.key())
                if key not in cache:
                    cache[key] = hyper_satisfies(model, quasi, POS) is True
                assert cache[key], f"seed {seed}: {quasi} fails in model {m_idx}"
