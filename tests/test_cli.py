import json

import pytest

from hql.cli import main
from hql.dsl import Workspace
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
    big = tmp_path / "big.hql"
    big.write_text("monoid big over BOOL { preset depth(1); }\n")
    code, out, err = run(capsys, "monoid", "list", *fixture_files, str(big), "--monoid", "big")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "5,529,600" in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.hql"
    bad.write_text("signature S { f/2 ")
    code, _, err = run(capsys, "check", str(bad), "--algebra", "a", "--quasi", "q")
    assert code == 2
    assert "bad.hql" in err


def test_hypercheck_signature_mismatch_exits_2(capsys, fixture_files):
    # GRP objects applied to the LAT algebra l2 are no question at all
    for argv in (
        ["hypercheck", *fixture_files, "--algebra", "l2", "--theory", "cancellation", "--monoid", "grp_proj"],
        ["hypercheck", *fixture_files, "--algebra", "l2", "--quasi", "right_cancellation", "--monoid", "grp_proj"],
        ["check", *fixture_files, "--algebra", "l2", "--theory", "cancellation"],
        ["derive", *fixture_files, "--algebra", "l2", "--sigma", "grp_swap"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: signature mismatch: algebra l2 is over LAT, ")
        assert err.endswith(" is over GRP\n") and err.count("\n") == 1


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
