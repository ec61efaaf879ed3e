import pytest

from hql.dsl import (
    ParseError,
    ResolveError,
    SigmaNamer,
    Workspace,
    format_algebra,
    format_hypersub,
    format_monoid,
    format_proof,
    format_signature,
    format_theory,
    render_algebra_file,
    render_proof_file,
    render_theory_file,
)
from hql.proofs import Hyp, HypSub, Logic, ProofBuilder, check_proof, hyperclose, normalize
from hql.terms import App, Var

from proofgen import random_proof


def test_all_fixture_kinds_load(ws):
    assert set(ws.signatures) >= {"GRP", "LAT", "BOOL", "FLAT"}
    assert "z3sub" in ws.algebras and "f3" in ws.algebras
    assert "grp_swap" in ws.hypersubs
    assert "lat_four" in ws.monoids
    assert "cancellation" in ws.theories
    assert "swap_after_subst" in ws.proofs


def test_signature_roundtrip(ws):
    sig = ws.signature("FLAT")
    text = format_signature(sig)
    ws2 = Workspace().load_text(text)
    assert ws2.signature("FLAT") == sig
    assert ws2.signature("FLAT").name == "FLAT"


def test_algebra_roundtrip(ws):
    for name in ("z3sub", "l2", "b2", "f3", "chain3f"):
        algebra = ws.algebra(name)
        ws2 = Workspace().load_text(render_algebra_file(algebra))
        again = ws2.algebra(name)
        assert again == algebra
        assert again.universe == algebra.universe  # element order preserved


def test_hypersub_roundtrip(ws):
    sig, sigma = ws.hypersub("grp_swap")
    text = format_signature(sig) + "\n" + format_hypersub("grp_swap", sigma, sig)
    ws2 = Workspace().load_text(text)
    assert ws2.hypersub("grp_swap")[1] == sigma


def test_theory_roundtrip(ws):
    theory = ws.theory("flat_base")
    ws2 = Workspace().load_text(render_theory_file(theory))
    assert ws2.theory("flat_base").items == theory.items


PRESET_SPELLINGS = [
    "trivial",
    "fundamental",
    "MF",
    "depth(0)",
    "depth(1)",
    "zero_meet(1, zero, meet)",
    "zero_meet_fundamental(zero, meet)",
]


def _monoid_file(monoid):
    namer = SigmaNamer()
    body = format_monoid(monoid, namer)
    chunks = [format_signature(monoid.sig)]
    chunks += [format_hypersub(name, s, monoid.sig) for s, name in namer.names.items()]
    return "\n\n".join(chunks + [body])


def test_monoid_preset_roundtrip(ws):
    flat = format_signature(ws.signature("FLAT"))
    monoids = [ws.monoid("flat_zm"), ws.monoid("grp_proj")]
    for spelling in PRESET_SPELLINGS:
        text = f"{flat}\nmonoid m over FLAT {{ preset {spelling}; }}"
        monoids.append(Workspace().load_text(text).monoid("m"))
    for monoid in monoids:
        text = _monoid_file(monoid)
        again = Workspace().load_text(text).monoid(monoid.name)
        assert again.elements() == monoid.elements(), text
        assert _monoid_file(again) == text


def test_explicit_monoid_roundtrip(ws):
    monoid = ws.monoid("lat_four")
    namer = SigmaNamer()
    chunks = [format_signature(monoid.sig)]
    body = format_monoid(monoid, namer)
    for sigma, name in list(namer.names.items()):
        chunks.append(format_hypersub(name, sigma, monoid.sig))
    chunks.append(body)
    ws2 = Workspace().load_text("\n\n".join(chunks))
    assert ws2.monoid("lat_four").elements() == monoid.elements()


def test_proof_file_roundtrip(ws):
    for name in ("swap_after_subst", "swap_of_axiom", "cut_demo"):
        proof = ws.proof(name)
        text = render_proof_file(proof)
        ws2 = Workspace().load_text(text)
        again = ws2.proof(name)
        assert [line for line, _ in again.lines] == [line for line, _ in proof.lines]
        check_proof(again)
        assert again.logic.kind == proof.logic.kind
    # random proofs put every rule's text form through the format and the parser
    rules = set()
    for theory, monoid in (("cancellation_demo", "grp_pos"), ("lattice_laws", "lat_four")):
        logic = Logic.mhq(ws.monoid(monoid))
        for seed in range(30):
            proof = random_proof(seed, ws.theory(theory), logic, steps=20)
            text = render_proof_file(proof)
            again = Workspace().load_text(text).proof(proof.name)
            assert again.lines == proof.lines
            assert render_proof_file(again) == text
            rules |= {type(j) for _, j in proof.lines}
    assert len(rules) == 11


def test_generated_monoid_proof_file_roundtrip(ws):
    monoid = ws.monoid("grp_proj")
    _, left = ws.hypersub("grp_left")
    builder = ProofBuilder(ws.theory("cancellation_demo"), Logic.mhq(monoid))
    builder.add(HypSub(builder.add(Hyp(0)), left))
    proof = builder.proof(name="proj_demo")
    text = render_proof_file(proof)
    again = Workspace().load_text(text).proof("proj_demo")
    check_proof(again)
    assert [line for line, _ in again.lines] == [line for line, _ in proof.lines]
    assert again.logic.monoid.elements() == monoid.elements()
    assert render_proof_file(again) == text


def test_normalized_proof_roundtrip(ws):
    normal = normalize(ws.proof("swap_after_subst"))
    ws2 = Workspace().load_text(render_proof_file(normal))
    again = ws2.proof("swap_after_subst")
    check_proof(again)
    assert again.conclusion().set_eq(normal.conclusion())


def test_duplicate_definition_rejected(ws, fixture_files):
    with pytest.raises(ResolveError):
        Workspace.load([fixture_files[0], fixture_files[0]])


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        Workspace().load_text("signature S { f/2; }\nalgebra A over S {\n  elements 0 1;\n  f = [[0, 1], [1]];\n}")
    assert err.value.line == 4


def test_unknown_signature_reference():
    with pytest.raises(ParseError):
        Workspace().load_text("algebra A over NOPE { elements 0; }")


def test_unknown_hypersub_in_monoid():
    with pytest.raises(ResolveError):
        Workspace().load_text("signature S { f/2; }\nmonoid M over S { elements ghost; }")


def test_table_entry_errors():
    base = "signature S { f/2; c/0; }\n"
    with pytest.raises(ParseError) as err:
        Workspace().load_text(base + "algebra A over S { elements 0 1; f = [[0, 1], [1, zzz]]; c = 0; }")
    assert "zzz" in str(err.value)
    with pytest.raises(ParseError):
        Workspace().load_text(base + "algebra A over S { elements 0 1; c = 0; }")


def test_anonymous_proof_gets_generated_name():
    text = (
        "signature S { f/2; }\n"
        "theory T over S { f(x0, x1) = f(x1, x0); }\n"
        "proof over S in Q from T\n"
        "1: f(x0, x1) = f(x1, x0) by hyp 0\n"
    )
    ws2 = Workspace().load_text(text)
    assert "proof1" in ws2.proofs
    check_proof(ws2.proof("proof1"))


def test_proof_line_numbering_enforced():
    text = (
        "signature S { f/2; }\n"
        "theory T over S { f(x0, x1) = f(x1, x0); }\n"
        "proof p over S in Q from T\n"
        "2: f(x0, x1) = f(x1, x0) by hyp 0\n"
    )
    with pytest.raises(ParseError) as err:
        Workspace().load_text(text)
    assert "sequential" in str(err.value)


def test_hypersub_pattern_aliases():
    text = (
        "signature S { f/2; }\n"
        "hypersub s over S { f(a, b) -> f(b, a); }\n"
    )
    ws2 = Workspace().load_text(text)
    _, sigma = ws2.hypersub("s")
    assert sigma.image("f") == App("f", (Var(1), Var(0)))


def test_hypersub_requires_every_op():
    text = "signature S { f/2; g/1; }\nhypersub s over S { f(x0, x1) -> f(x0, x1); }\n"
    with pytest.raises(Exception):
        Workspace().load_text(text)


def test_hypersub_constant_image_without_parens():
    text = (
        "signature S2 { f/2; c/0; }\n"
        "hypersub s2 over S2 { f(x0, x1) -> f(x1, x0); c -> c; }\n"
    )
    ws2 = Workspace().load_text(text)
    _, sigma = ws2.hypersub("s2")
    assert sigma.image("c") == App("c")


def test_hq_logic_proof_block():
    text = (
        "signature S4 { f/2; }\n"
        "hypersub deep over S4 { f(x0, x1) -> f(f(x0, x1), x1); }\n"
        "theory t4 over S4 { f(x0, x1) = f(x1, x0); }\n"
        "proof p4 over S4 in HQ from t4\n"
        "1: f(x0, x1) = f(x1, x0) by hyp 0\n"
        "2: f(f(x0, x1), x1) = f(f(x1, x0), x0) by hypsub 1 deep\n"
    )
    ws2 = Workspace().load_text(text)
    proof = ws2.proof("p4")
    assert proof.logic.kind == "HQ"
    check_proof(proof)  # any well-formed map is admitted in HQ


def test_preset_fundamental_spelling_variants():
    text = (
        "signature S3 { f/2; }\n"
        "monoid m1 over S3 { preset fundamental; }\n"
        "monoid m2 over S3 { preset MF; }\n"
    )
    ws2 = Workspace().load_text(text)
    assert ws2.monoid("m1").elements() == ws2.monoid("m2").elements()
