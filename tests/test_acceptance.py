"""Acceptance suite: one test per criterion, each printing a verdict line.

Criteria with a stated runtime bound assert it; the exhaustive sweeps have
no stated bound and take a couple of minutes in total.  Run with `-s` to
see the per-criterion lines.
"""

import itertools
import time

import pytest

from hql.algebras import all_algebras
from hql.hypersubs import HyperSub, Monoid
from hql.proofs import (
    HypSub,
    Hyp,
    Logic,
    ProofBuilder,
    TermCompat,
    check_proof,
    derive_term_compat,
    from_q_proof,
    hyperclose,
    is_normal,
    map_proof,
    normalize,
    strip_to_q,
)
from hql.semantics import (
    Theory,
    basic_terms,
    check_absorption,
    check_basic_preservation,
    check_solidity,
    classify_basic,
    hyper_satisfies,
    hyper_satisfies_theory,
    satisfies,
)
from hql.terms import App, Equation, QuasiEquation, Signature, Var, iter_terms, subst_vars, variables

from proofgen import random_proof, random_term

GRP = Signature.of("GRP", mul=2)
x0, x1, x2 = Var(0), Var(1), Var(2)


def mul(a, b):
    return App("mul", (a, b))


def report(num, text):
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


def test_c01_quasigroup_cancellation(ws):
    t0 = time.perf_counter()
    z3 = ws.algebra("z3sub")
    cancellation = ws.theory("cancellation")
    assert hyper_satisfies_theory(z3, cancellation, ws.monoid("grp_pos")) is True
    negative = hyper_satisfies_theory(z3, cancellation, ws.monoid("grp_proj"))
    assert not negative
    assert negative.sigma.image("mul") == Var(1)  # the second projection
    single = hyper_satisfies(z3, ws.quasi("right_cancellation")[1], ws.monoid("grp_proj"))
    assert not single and single.sigma.image("mul") == Var(1)
    assert single.assignment == {0: 0, 1: 0, 2: 1}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"cancellation holds under {{id, swap}}, refuted by the second projection ({elapsed:.3f}s)")


def test_c02_lattice_hyperidentities(ws):
    t0 = time.perf_counter()
    l2 = ws.algebra("l2")
    four = ws.monoid("lat_four")
    assert hyper_satisfies_theory(l2, ws.theory("lattice_laws"), four) is True
    alt = ws.quasi("distrib_alt")[1]
    assert not satisfies(l2, alt)  # documented expected failure, classically
    assert not hyper_satisfies(l2, alt, four)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"lattice laws hold under the four maps; misprinted distributivity fails ({elapsed:.3f}s)")


def test_c03_boolean_duality_fundamental(ws):
    t0 = time.perf_counter()
    b2 = ws.algebra("b2")
    fund = ws.monoid("bool_fund")
    assert len(fund.elements()) == 256
    assert hyper_satisfies(b2, ws.quasi("duality_law")[1], fund) is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, f"Boolean duality law survives all 256 fundamental maps ({elapsed:.3f}s)")


def test_c04_flat_solidity(ws):
    t0 = time.perf_counter()
    f3 = ws.algebra("f3")
    base = ws.theory("flat_base")
    zm = ws.monoid("flat_zm")
    assert zm.image_depth == 2
    assert check_solidity(base, [f3], zm) is True
    assert check_absorption(f3, "meet", "zero") is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(4, f"flat fixture solid under {len(zm.elements())} zero/meet-preserving maps; zero absorbed at every depth ({elapsed:.3f}s)")


def test_c05_basic_term_preservation(ws):
    t0 = time.perf_counter()
    flat = ws.signature("FLAT")
    zmf = ws.monoid("flat_zmf")
    pool = list(range(100, 130))
    total = 0
    for sigma in zmf.elements():
        assert check_basic_preservation(sigma, flat) is True
        for depth in range(5):
            for term in basic_terms(flat, 0, depth, pool):
                assert classify_basic(sigma.apply(term), 0) == depth
                total += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(5, f"{total} basic-term images reclassify at equal depth ({elapsed:.3f}s)")


def _naive_hypersub(sigma, term):
    if isinstance(term, Var):
        return term
    return subst_vars(
        sigma.image(term.op), {i: _naive_hypersub(sigma, a) for i, a in enumerate(term.args)}
    )


def test_c06_derived_algebra_bridge():
    from _bridge_sweep import _vec_eval, sweep

    t0 = time.perf_counter()
    total = 0
    for size in (1, 2, 3):
        total += sweep(size, image_depth=2, term_depth_max=3)

    # tie the package evaluator to the vectorised one: exhaustive at size 2
    import numpy as np

    terms = iter_terms(GRP, 2, 3)
    algebras = list(all_algebras(GRP, 2))
    tables = np.array([a.table("mul") for a in algebras], dtype=np.int8)
    cache = {}
    for i, algebra in enumerate(algebras):
        for t in terms:
            vec = _vec_eval(t, tables, 2, cache)
            for e, (v0, v1) in enumerate(itertools.product(range(2), repeat=2)):
                assert algebra.eval(t, {0: v0, 1: v1}) == vec[i, e]

    # and the hypersubstitution action to an independent recursion
    for sigma in Monoid.depth_slice(GRP, 2).elements():
        for t in terms:
            assert sigma.apply(t) == _naive_hypersub(sigma, t)

    elapsed = time.perf_counter() - t0
    report(6, f"bridge exhaustive over sizes 1-3: {total} checks, zero violations ({elapsed:.1f}s)")


# -- generated-proof criteria ----------------------------------------------------


CANCEL_RIGHT = QuasiEquation((Equation(mul(x0, x2), mul(x1, x2)),), Equation(x0, x1))
CANCEL_LEFT = QuasiEquation((Equation(mul(x2, x0), mul(x2, x1)),), Equation(x0, x1))
COMM = QuasiEquation((), Equation(mul(x0, x1), mul(x1, x0)))
ASSOC = QuasiEquation(
    (), Equation(mul(mul(x0, x1), x2), mul(x0, mul(x1, x2)))
)

IDENT = HyperSub.identity(GRP)
SWAP = HyperSub.of(GRP, {"mul": mul(x1, x0)})
POS = Monoid.explicit(GRP, [IDENT, SWAP], name="pos")

CONFIGS = [
    (Theory(GRP, (CANCEL_RIGHT,), name="t_rc"), POS),
    (Theory(GRP, (CANCEL_RIGHT, CANCEL_LEFT), name="t_both"), Monoid.trivial(GRP)),
    (Theory(GRP, (COMM,), name="t_comm"), Monoid.fundamental(GRP)),
    (Theory(GRP, (ASSOC,), name="t_assoc"), POS),
]

N_PROOFS = 200


@pytest.fixture(scope="module")
def generated_proofs():
    proofs = []
    for seed in range(N_PROOFS):
        theory, monoid = CONFIGS[seed % len(CONFIGS)]
        proof = random_proof(seed, theory, Logic.mhq(monoid), steps=10, max_depth=5)
        check_proof(proof)
        proofs.append((seed, proof))
    return proofs


@pytest.fixture(scope="module")
def small_models():
    """All algebras of size <= 2 hyper-satisfying each config's theory."""
    out = {}
    for theory, monoid in CONFIGS:
        models = [
            algebra
            for size in (1, 2)
            for algebra in all_algebras(GRP, size)
            if hyper_satisfies_theory(algebra, theory, monoid) is True
        ]
        assert models  # the one-element algebra always qualifies
        out[theory.name] = models
    return out


def test_c07_soundness_of_generated_proofs(generated_proofs, small_models):
    t0 = time.perf_counter()
    cache = {}
    lines_checked = 0
    for seed, proof in generated_proofs:
        monoid = proof.logic.monoid
        models = small_models[proof.theory.name]
        for quasi, _ in proof.lines:
            lines_checked += 1
            for m_idx, model in enumerate(models):
                key = (proof.theory.name, m_idx, quasi.key())
                if key not in cache:
                    cache[key] = hyper_satisfies(model, quasi, monoid) is True
                assert cache[key], f"seed {seed}: line {quasi} fails in model {m_idx}"
    elapsed = time.perf_counter() - t0
    report(7, f"{len(generated_proofs)} proofs / {lines_checked} lines sound in every small model ({elapsed:.1f}s)")


def test_c08_normalization_round_trip(generated_proofs):
    t0 = time.perf_counter()
    for seed, proof in generated_proofs:
        normal = normalize(proof)
        check_proof(normal)
        assert is_normal(normal), f"seed {seed}"
        assert normal.conclusion().set_eq(proof.conclusion()), f"seed {seed}"
        closed = hyperclose(proof.theory, proof.logic.monoid)
        qproof = strip_to_q(normal, closed)
        assert qproof.logic.kind == "Q"
        check_proof(qproof)
        assert qproof.conclusion().set_eq(proof.conclusion()), f"seed {seed}"
        back = from_q_proof(qproof, proof.theory, proof.logic.monoid)
        check_proof(back)
        assert back.conclusion().set_eq(proof.conclusion()), f"seed {seed}"
    elapsed = time.perf_counter() - t0
    report(8, f"normalisation preserves conclusions and reduces to the closed plain calculus ({elapsed:.1f}s)")


def test_c09_prefix_stability(generated_proofs):
    t0 = time.perf_counter()
    mapped_count = 0
    for seed, proof in generated_proofs:
        for sigma in proof.logic.monoid.elements():
            mapped = map_proof(proof, sigma)
            check_proof(mapped)
            assert mapped.conclusion().set_eq(sigma.apply_quasi(proof.conclusion())), f"seed {seed}"
            mapped_count += 1
    elapsed = time.perf_counter() - t0
    report(9, f"{mapped_count} line-wise images re-check as proofs of the image conclusion ({elapsed:.1f}s)")


def test_c10_generalised_compatibility_expansion():
    import random

    t0 = time.perf_counter()
    theory = Theory(GRP, (CANCEL_RIGHT,))
    for seed in range(50):
        rng = random.Random(seed)
        pattern = random_term(rng, GRP, n_vars=2, depth=3)
        if isinstance(pattern, Var):
            pattern = mul(pattern, Var(1))
        lhs = tuple(random_term(rng, GRP, 3, 3) for _ in range(2))
        rhs = tuple(random_term(rng, GRP, 3, 3) for _ in range(2))
        proof = derive_term_compat(pattern, lhs, rhs, theory)
        check_proof(proof)
        builder = ProofBuilder(theory, Logic.q())
        want = builder.statement(builder.add(TermCompat(pattern, lhs, rhs)))
        assert proof.conclusion().set_eq(want), f"seed {seed}"
        assert all(not isinstance(j, (TermCompat, HypSub)) for _, j in proof.lines)
    elapsed = time.perf_counter() - t0
    report(10, f"50 expansions check and conclude the generalised compatibility statement ({elapsed:.1f}s)")
