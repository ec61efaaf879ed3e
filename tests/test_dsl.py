import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

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
    tokenize,
)
from hql.proofs import Hyp, HypSub, Logic, ProofBuilder, check_proof, hyperclose, normalize
from hql.terms import App, Var

from _token_oracle import tokenize as oracle_tokenize
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


def test_monoid_block_takes_one_member_list(fixture_files):
    ws2 = Workspace.load([fixture_files[0]])  # GRP and its hypersubs
    for block in (
        "elements grp_id; generators grp_swap;",
        "elements grp_id; cap 8;",
        "preset trivial; cap 8;",
    ):
        with pytest.raises(ParseError) as err:
            ws2.load_text(f"monoid mm over GRP {{ {block} }}")
        second = block.split("; ")[1]
        assert err.value.col == len("monoid mm over GRP { ") + block.index(second) + 1
    ws2.load_text("monoid gp over GRP { generators grp_left, grp_right; cap 8; }")
    assert ws2.monoid("gp").elements() == ws2.monoid("grp_proj").elements()


def test_duplicate_definition_rejected(ws, fixture_files):
    with pytest.raises(ResolveError):
        Workspace.load([fixture_files[0], fixture_files[0]])


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        Workspace().load_text("signature S { f/2; }\nalgebra A over S {\n  elements 0 1;\n  f = [[0, 1], [1]];\n}")
    assert err.value.line == 4


_S = "signature S { f/2; c/0; }\n"
_T = _S + "theory T over S { f(x, y) = f(y, x); }\n"
_P = _T + "proof p over S in Q from T\n1: f(x0, x1) = f(x1, x0) by hyp 0\n"

# Malformed text and its exact message.  Lines count from 1 at each `\n`;
# columns count characters, so a tab, `\x0c`, `\r` or `é` is one column.
PARSE_ERRORS = [
    ("unexpected_char", _S + "quasi q over S { f(x, y) @ x }",
     "t.hql:2:26: unexpected character '@'"),
    ("unexpected_non_ascii", _S + "quasi q over S { f(é, x) = x }",
     "t.hql:2:20: unexpected character 'é'"),
    ("tab_and_formfeed_are_one_column", "signature S {\tf/2;\x0c$ }",
     "t.hql:1:20: unexpected character '$'"),
    ("end_of_input", "signature S { f/2 ",
     "t.hql:1:19: expected ident, found 'end of input'"),
    ("end_of_input_in_term", _S + "quasi q over S { f(x,",
     "t.hql:2:22: expected a term, found 'end of input'"),
    ("after_comment_line", "# header\n" + _S + "# note: T comes later\nalgebra A over T { elements 0; }",
     "t.hql:4:16: unknown signature 'T'"),
    ("comment_at_end_of_line", _S + "quasi q over S { f(x) = x }  # one argument",
     "t.hql:2:21: operation 'f' expects 2 argument(s), got 1"),
    ("after_crlf", _S.replace("\n", "\r\n") + "quasi q over S {\r\n  f(x, c(), y) = x\r\n}",
     "t.hql:3:14: operation 'f' expects 2 argument(s), got 3"),
    ("wrong_arity", _S + "theory T over S { f(x, y) = f(x); }",
     "t.hql:2:32: operation 'f' expects 2 argument(s), got 1"),
    ("alias_collides_with_xN", _S + "quasi q over S { f(x, x0) = x }",
     "t.hql:2:23: variable x0 collides with the alias 'x'"),
    ("unknown_operation", _S + "quasi q over S { g(x) = x }",
     "t.hql:2:18: unknown operation symbol 'g'"),
    ("expected_a_term", _S + "quasi q over S { f(x, ) = x }",
     "t.hql:2:23: expected a term, found ')'"),
    ("premises_without_conclusion", _S + "quasi q over S { f(x, y) = x, f(y, x) = y }",
     "t.hql:2:43: premise list without a '=>' conclusion"),
    ("definition_keyword", _S + "sig Q { g/1; }",
     "t.hql:2:1: expected a definition keyword, found 'sig'"),
    ("variable_named_operation", "signature S { x1/2; }",
     "t.hql:1:15: operation name 'x1' clashes with variable syntax"),
    ("unknown_signature", "algebra A over NOPE { elements 0; }",
     "t.hql:1:16: unknown signature 'NOPE'"),
    ("table_rows", _S + "algebra A over S { elements 0 1; f = [[0, 1], [1]]; c = 0; }",
     "t.hql:2:34: table for 'f' must have 2 row(s) per level"),
    ("unknown_label", _S + "algebra A over S { elements 0 1; f = [[0, 1], [1, 2]]; c = 0; }",
     "t.hql:2:34: unknown element label '2' in table for 'f'"),
    ("unknown_preset", _S + "monoid M over S { preset everything; }",
     "t.hql:2:26: unknown preset 'everything'"),
    ("two_member_lists", _S + "monoid M over S { preset trivial; cap 3; }",
     "t.hql:2:35: 'cap' cannot follow 'preset': a monoid takes one member list"),
    ("pattern_parameter", _S + "hypersub h over S { f(x1, x0) -> f(x0, x1); c -> c; }",
     "t.hql:2:21: positional parameter 'x1' must be x0"),
    ("bad_justification", _P + "2: f(x1, x0) = f(x0, x1) by swap 1\n",
     "t.hql:5:29: unknown justification 'swap'"),
    ("line_reference_out_of_range", _P + "2: f(x1, x0) = f(x0, x1) by subst 2 {x0 -> x1, x1 -> x0}\n",
     "t.hql:5:35: line reference 2 is not an earlier line"),
    ("line_reference_zero", _P + "2: f(x1, x0) = f(x0, x1) by cut 1 0\n",
     "t.hql:5:35: line reference 0 is not an earlier line"),
    ("line_numbers_sequential", _P + "3: f(x1, x0) = f(x0, x1) by hyp 0\n",
     "t.hql:5:1: line numbers must be sequential (expected 2)"),
    ("keyword_as_term", _P + "2: f(by, x0) = x0 by hyp 0\n",
     "t.hql:5:6: unexpected keyword 'by'"),
    ("substitution_key", _P + "2: f(x1, x0) = f(x0, x1) by subst 1 {y -> x1}\n",
     "t.hql:5:38: substitution keys must be explicit x<digits>"),
    ("proof_unknown_signature", _T + "proof p over NOPE in Q from T\n",
     "t.hql:3:14: unknown signature 'NOPE'"),
    ("unknown_logic", _T + "proof p over S in R from T\n",
     "t.hql:3:19: unknown logic 'R'"),
]


@pytest.mark.parametrize(
    "text, message", [case[1:] for case in PARSE_ERRORS], ids=[case[0] for case in PARSE_ERRORS]
)
def test_parse_error_message(text, message):
    with pytest.raises(ParseError) as err:
        Workspace().load_text(text, filename="t.hql")
    assert str(err.value) == message


# Pieces of every token kind, every kind of blank, comments and characters
# no token takes, some of them outside ASCII (`٣` is a Unicode digit).
TEXT_PIECES = [
    "->", "=>", "x0", "x12", "mul", "_a1", "B2", "7", "042", *"{}()[],;:/=",
    " ", "\t", "\n", "\r\n", "\r", "\x0c", "\x0b", "\xa0", "\u2028",
    "# note", "#", "é", "λ", "٣", "-", ">", "@", "\x00", ".",
]


def _tokens_or_error(tokenizer, text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenizer(text, "t.hql")]
    except ParseError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(TEXT_PIECES), max_size=30).map("".join), st.text(max_size=30)))
def test_tokenize_matches_oracle(text):
    assert _tokens_or_error(tokenize, text) == _tokens_or_error(oracle_tokenize, text)


def test_unknown_signature_reference():
    with pytest.raises(ParseError):
        Workspace().load_text("algebra A over NOPE { elements 0; }")


# A name that resolves to nothing, and its exact message.
RESOLVE_ERRORS = [
    ("mhq_monoid", _T + "proof p over S in MHQ(nosuch) from T\n", "unknown monoid 'nosuch'"),
    ("proof_theory", _T + "proof p over S in Q from nosuch\n", "unknown theory 'nosuch'"),
    ("hypsub_sigma", _P + "2: f(x1, x0) = f(x0, x1) by hypsub 1 nosuch\n", "unknown hypersub 'nosuch'"),
    ("monoid_elements", _S + "monoid M over S { elements nosuch; }", "unknown hypersub 'nosuch'"),
    ("monoid_wrong_signature",
     _S + "signature R { g/1; }\nhypersub h over R { g(x0) -> x0; }\nmonoid M over S { generators h; }",
     "unknown hypersub 'h (wrong signature)'"),
]


@pytest.mark.parametrize(
    "text, message", [case[1:] for case in RESOLVE_ERRORS], ids=[case[0] for case in RESOLVE_ERRORS]
)
def test_resolve_error_message(text, message):
    with pytest.raises(ResolveError) as err:
        Workspace().load_text(text, filename="t.hql")
    assert str(err.value) == message


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
