import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hql.cli import main
from hql.dsl import Workspace, tokenize
from hql.fixtures import fixture_paths
from hql.proofs import check_proof


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_holds(capsys, fixture_files):
    code, out, _ = run(
        capsys, "check", *fixture_files, "--algebra", "z3sub", "--quasi", "right_cancellation"
    )
    assert code == 0
    assert "HOLDS" in out


def test_check_refuted_with_witness(capsys, fixture_files, tmp_path):
    extra = tmp_path / "trivial.hql"
    extra.write_text("quasi trivial_eq over LAT { x = y }\n")
    code, out, _ = run(
        capsys, "check", *fixture_files, str(extra), "--algebra", "l2", "--quasi", "trivial_eq"
    )
    assert code == 1
    assert "FAILS" in out and "x0 = 0" in out and "x1 = 1" in out


def test_check_unresolved_name_exits_2(capsys, fixture_files):
    code, _, err = run(capsys, "check", *fixture_files, "--algebra", "ghost", "--quasi", "idem_law")
    assert code == 2
    assert "ghost" in err


def test_check_json_schema(capsys, fixture_files):
    code, out, _ = run(
        capsys,
        "check",
        *fixture_files,
        "--algebra",
        "l2",
        "--quasi",
        "distrib_alt",
        "--json",
    )
    assert code == 1
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["check"] == "check"
    assert report["result"] == "fails"
    assert report["witness"]["assignment"] == {"x0": "0", "x1": "0", "x2": "1"}


def test_hypercheck_positive(capsys, fixture_files):
    code, out, _ = run(
        capsys,
        "hypercheck",
        *fixture_files,
        "--algebra",
        "z3sub",
        "--theory",
        "cancellation",
        "--monoid",
        "grp_pos",
    )
    assert code == 0 and "HOLDS" in out


def test_hypercheck_negative_includes_sigma(capsys, fixture_files):
    code, out, _ = run(
        capsys,
        "hypercheck",
        *fixture_files,
        "--algebra",
        "z3sub",
        "--quasi",
        "right_cancellation",
        "--monoid",
        "grp_proj",
        "--json",
    )
    assert code == 1
    report = json.loads(out)
    assert report["witness"]["sigma"] == {"mul": "x1"}


def test_hypercheck_boolean_fundamental(capsys, fixture_files):
    code, out, _ = run(
        capsys,
        "hypercheck",
        *fixture_files,
        "--algebra",
        "b2",
        "--quasi",
        "duality_law",
        "--monoid",
        "bool_fund",
    )
    assert code == 0 and "HOLDS" in out


def test_derive_identity_is_byte_identical(capsys, fixture_files, tmp_path):
    out_a = tmp_path / "a.hql"
    code, _, _ = run(
        capsys, "derive", *fixture_files, "--algebra", "z3sub", "--sigma", "grp_id",
        "--out", str(out_a),
    )
    assert code == 0
    from hql.dsl import render_algebra_file
    ws = Workspace.load(fixture_files)
    assert out_a.read_text() == render_algebra_file(ws.algebra("z3sub"))


def test_derive_dual_and_composite(capsys, fixture_files, tmp_path):
    dual_path = tmp_path / "dual.hql"
    code, _, _ = run(
        capsys, "derive", *fixture_files, "--algebra", "l2", "--sigma", "lat_dual",
        "--out", str(dual_path),
    )
    assert code == 0
    ws1 = Workspace.load([str(dual_path)])
    dual = ws1.algebra("l2")
    ws = Workspace.load(fixture_files)
    l2 = ws.algebra("l2")
    assert dual.table("meet") == l2.table("join")
    # deriving the dual twice restores the original tables
    once_more = dual.derived(ws.hypersub("lat_dual")[1])
    assert once_more.tables == l2.tables


def test_verify_proof_valid(capsys, fixture_files):
    code, out, _ = run(capsys, "verify-proof", *fixture_files, "--proof", "cut_demo")
    assert code == 0 and "VALID" in out


def test_verify_proof_invalid_line_reported(capsys, fixture_files, tmp_path):
    bad = tmp_path / "bad.hql"
    bad.write_text(
        "theory bad_facts over GRP { mul(x0, x0) = x0; }\n"
        "proof broken over GRP in Q from bad_facts\n"
        "1: mul(x0, x0) = x1 by hyp 0\n"
    )
    code, out, _ = run(capsys, "verify-proof", *fixture_files, str(bad), "--proof", "broken")
    assert code == 1
    assert "INVALID" in out and "line 1" in out


def test_normalize_then_verify(capsys, fixture_files, tmp_path):
    out_path = tmp_path / "normal.hql"
    code, _, _ = run(
        capsys, "normalize-proof", *fixture_files, "--proof", "swap_after_subst",
        "--out", str(out_path),
    )
    assert code == 0
    code, out, _ = run(capsys, "verify-proof", str(out_path), "--proof", "swap_after_subst")
    assert code == 0 and "VALID" in out
    ws = Workspace.load(fixture_files)
    original = ws.proof("swap_after_subst")
    again = Workspace.load([str(out_path)]).proof("swap_after_subst")
    assert again.conclusion().set_eq(original.conclusion())


def test_hyperclose_emits_two_item_theory(capsys, fixture_files, tmp_path):
    out_path = tmp_path / "closed.hql"
    code, _, _ = run(
        capsys, "hyperclose", *fixture_files, "--theory", "cancellation_demo",
        "--monoid", "grp_pos", "--out", str(out_path),
    )
    assert code == 0
    closed = Workspace.load([str(out_path)]).theory("cancellation_demo")
    assert len(closed.items) == 2


def test_saturate_report(capsys, fixture_files):
    code, out, _ = run(
        capsys, "saturate", *fixture_files, "--theory", "cancellation_demo",
        "--monoid", "grp_pos", "--term-depth", "1", "--premises", "1",
        "--iterations", "8", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["truncated"] is False
    assert report["items"] > 2


def test_solid_check_flat_fixture(capsys, fixture_files):
    code, out, _ = run(
        capsys, "solid-check", *fixture_files, "--theory", "flat_base",
        "--witnesses", "f3", "--monoid", "flat_zm",
    )
    assert code == 0 and "HOLDS" in out


def test_solid_check_bad_witness_is_precondition_error(capsys, fixture_files):
    code, _, err = run(
        capsys, "solid-check", *fixture_files, "--theory", "flat_base",
        "--witnesses", "f3,f3_bad", "--monoid", "flat_zmf",
    )
    assert code == 2
    assert "f3_bad" in err


def test_monoid_list_and_closure(capsys, fixture_files):
    code, out, _ = run(capsys, "monoid", "list", *fixture_files, "--monoid", "grp_proj")
    assert code == 0
    assert "mul -> x0" in out and "mul -> x1" in out
    code, out, _ = run(capsys, "monoid", "closure", *fixture_files, "--monoid", "grp_pos", "--json")
    assert code == 0
    table = json.loads(out)["table"]
    assert len(table) == 4
    assert all(entry["result"] is not None for entry in table)


def test_monoid_too_large_exits_2(capsys, fixture_files, tmp_path):
    for text, count in (
        ("monoid big over BOOL { preset depth(1); }\n", "5,529,600"),
        ("monoid big over LAT { preset depth(4); }\n", "177,432,635,288,891,176,804"),
    ):
        big = tmp_path / "big.hql"
        big.write_text(text)
        code, out, err = run(capsys, "monoid", "list", *fixture_files, str(big), "--monoid", "big")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and count in err and err.count("\n") == 1
        assert "Traceback" not in err


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.hql"
    bad.write_text("signature S { f/2 ")
    code, _, err = run(capsys, "check", str(bad), "--algebra", "a", "--quasi", "q")
    assert code == 2
    assert "bad.hql" in err


def test_hypercheck_signature_mismatch_exits_2(capsys, fixture_files):
    # GRP objects applied to the LAT algebra l2 (or a GRP theory closed under
    # the LAT monoid lat_four) are no question at all
    to_l2 = ("algebra l2 is over LAT, ", " is over GRP\n")
    to_lat_four = ("theory cancellation_demo is over GRP, ", "monoid lat_four is over LAT\n")
    for argv, (first, last) in (
        (["hypercheck", *fixture_files, "--algebra", "l2", "--theory", "cancellation", "--monoid", "grp_proj"], to_l2),
        (["hypercheck", *fixture_files, "--algebra", "l2", "--quasi", "right_cancellation", "--monoid", "grp_proj"], to_l2),
        (["check", *fixture_files, "--algebra", "l2", "--theory", "cancellation"], to_l2),
        (["derive", *fixture_files, "--algebra", "l2", "--sigma", "grp_swap"], to_l2),
        (["hyperclose", *fixture_files, "--theory", "cancellation_demo", "--monoid", "lat_four"], to_lat_four),
        (["saturate", *fixture_files, "--theory", "cancellation_demo", "--monoid", "lat_four"], to_lat_four),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: signature mismatch: " + first)
        assert err.endswith(last) and err.count("\n") == 1


def test_deep_term_exits_2_without_traceback(capsys, tmp_path):
    deep = tmp_path / "deep.hql"
    term = "mul(" * 3000 + "x" + ", x)" * 3000
    deep.write_text(
        "signature S { mul/2; }\n"
        "algebra z over S { elements 0 1; mul = [[0, 1], [1, 0]]; }\n"
        f"quasi deep over S {{ {term} = x }}\n"
    )
    code, _, err = run(capsys, "check", str(deep), "--algebra", "z", "--quasi", "deep")
    assert code == 2
    assert "term nesting too deep" in err
    assert "Traceback" not in err


def test_unexpected_exception_exits_2(capsys, fixture_files, monkeypatch):
    import hql.cli

    def boom(ws, args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(hql.cli, "_cmd_check", boom)
    code, _, err = run(
        capsys, "check", *fixture_files, "--algebra", "z3sub", "--quasi", "right_cancellation"
    )
    assert code == 2
    assert err.startswith("error: internal error: ZeroDivisionError: boom")


def test_saturate_names_the_item_cap(capsys, fixture_files):
    code, out, _ = run(
        capsys, "saturate", *fixture_files, "--theory", "cancellation_demo",
        "--monoid", "grp_pos", "--term-depth", "1", "--premises", "3",
        "--iterations", "2", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["items"] == 2000
    assert report["truncated"] is True and report["truncated_by"] == "items"


# The nine README commands: the words before the fixture files, the words after.
README_COMMANDS = (
    (["check"], ["--algebra", "z3sub", "--quasi", "right_cancellation"]),
    (["hypercheck"], ["--algebra", "z3sub", "--theory", "cancellation", "--monoid", "grp_proj"]),
    (["derive"], ["--algebra", "l2", "--sigma", "lat_dual", "--out", "dual.hql"]),
    (["verify-proof"], ["--proof", "swap_after_subst"]),
    (["normalize-proof"], ["--proof", "swap_after_subst", "--out", "normal.hql"]),
    (["hyperclose"], ["--theory", "cancellation_demo", "--monoid", "grp_pos", "--out", "closed.hql"]),
    (
        ["saturate"],
        ["--theory", "cancellation_demo", "--monoid", "grp_pos", "--term-depth", "1", "--premises", "1", "--iterations", "8"],
    ),
    (["solid-check"], ["--theory", "flat_base", "--witnesses", "f3", "--monoid", "flat_zm"]),
    (["monoid", "list"], ["--monoid", "grp_proj"]),
)
FIXTURE_TOKENS = [
    [t.text for t in tokenize(Path(path).read_text()) if t.kind != "eof"] for path in fixture_paths()
]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_exit_code_contract_under_token_mutations(data):
    # one token of one fixture file deleted or duplicated; tokens re-joined by
    # single spaces, so no number can grow
    head, tail = data.draw(st.sampled_from(README_COMMANDS))
    which = data.draw(st.integers(0, len(FIXTURE_TOKENS) - 1))
    tokens = list(FIXTURE_TOKENS[which])
    i = data.draw(st.integers(0, len(tokens) - 1))
    if data.draw(st.booleans()):
        del tokens[i]
    else:
        tokens.insert(i, tokens[i])
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        files = fixture_paths()
        files[which] = os.path.join(tmp, "mutated.hql")
        Path(files[which]).write_text(" ".join(tokens))
        argv = [*head, *files, *(os.path.join(tmp, w) if w.endswith(".hql") else w for w in tail)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse exits 2 on bad usage
                code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
