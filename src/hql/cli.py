"""Command-line front end.

Every command loads one or more workspace files (order matters: later
definitions may reference earlier ones), resolves named objects, runs one
check or transformation, and reports either human-readable text or a JSON
document (`--json`).  Exit codes are a stable contract: 0 the property
holds / the command succeeded, 1 refuted or invalid with a witness, 2 for
usage, parse or resolution errors.  Set HQL_COLOR=1 to colour verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebras import AlgebraError, FiniteAlgebra
from .dsl import (
    ParseError,
    ResolveError,
    SigmaNamer,
    Workspace,
    format_term,
    render_algebra_file,
    render_proof_file,
    render_theory_file,
)
from .hypersubs import MonoidError
from .proofs import ProofError, check_proof, hyperclose, normalize, saturate
from .semantics import (
    CounterExample,
    SolidityReport,
    check_solidity,
    hyper_satisfies,
    hyper_satisfies_theory,
    require_one_signature,
    satisfies,
    satisfies_theory,
)
from .terms import TermError


def _color(text: str, code: str) -> str:
    if os.environ.get("HQL_COLOR") == "1":
        return f"\033[{code}m{text}\033[0m"
    return text


def _verdict(ok: bool) -> str:
    return _color("HOLDS", "32") if ok else _color("FAILS", "31")


def _sigma_text(sigma) -> str:
    return "; ".join(f"{op} -> {format_term(img)}" for op, img in sigma.images)


def _sigma_json(sigma) -> dict | None:
    if sigma is None:
        return None
    return {op: format_term(img) for op, img in sigma.images}


def _witness_json(cex: CounterExample, algebra: FiniteAlgebra) -> dict:
    return {
        "sigma": _sigma_json(cex.sigma),
        "assignment": {
            f"x{v}": algebra.universe[e] for v, e in sorted(cex.assignment.items())
        },
        "failed": str(cex.failed),
        "lhs": algebra.universe[cex.lhs_value],
        "rhs": algebra.universe[cex.rhs_value],
        "item": cex.item,
        "label": cex.label,
    }


def _witness_text(cex: CounterExample, algebra: FiniteAlgebra) -> list[str]:
    out = []
    if cex.item is not None:
        out.append(f"  item:       #{cex.item}")
    if cex.label:
        out.append(f"  equation:   {cex.label}")
    if cex.sigma is not None:
        out.append(f"  sigma:      {_sigma_text(cex.sigma)}")
    env = ", ".join(
        f"x{v} = {algebra.universe[e]}" for v, e in sorted(cex.assignment.items())
    )
    out.append(f"  assignment: {env}")
    out.append(f"  failed:     {cex.failed}")
    out.append(
        f"  values:     {algebra.universe[cex.lhs_value]} != {algebra.universe[cex.rhs_value]}"
    )
    return out


def _report(check: str, inputs: dict, result: str, **extra) -> dict:
    return {"schema": 1, "check": check, "inputs": inputs, "result": result, **extra}


def _write_out(args, text: str) -> list[str]:
    """Write `text` to `--out` if given; the human lines that report it."""
    if not args.out:
        return [text.rstrip()]
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    return [f"wrote {args.out}"]


def _emit(report: dict, human: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in human:
            print(line)


def _target(ws: Workspace, args, algebra: FiniteAlgebra) -> tuple[str, object]:
    """The --quasi or --theory object, which must be over the algebra's
    signature."""
    if getattr(args, "quasi", None):
        kind = "quasi"
        sig, target = ws.quasi(args.quasi)
    elif getattr(args, "theory", None):
        kind = "theory"
        target = ws.theory(args.theory)
        sig = target.sig
    else:
        raise ResolveError("target", "(--quasi or --theory required)")
    require_one_signature(
        (f"algebra {args.algebra}", algebra.sig), (f"{kind} {args.quasi or args.theory}", sig)
    )
    return kind, target


def _cmd_check(ws: Workspace, args) -> int:
    algebra = ws.algebra(args.algebra)
    kind, target = _target(ws, args, algebra)
    result = (
        satisfies(algebra, target)
        if kind == "quasi"
        else satisfies_theory(algebra, target)
    )
    ok = bool(result)
    report = _report(
        "check",
        {"algebra": args.algebra, kind: args.quasi or args.theory},
        "holds" if ok else "fails",
        witness=None if ok else _witness_json(result, algebra),
    )
    human = [f"check {args.quasi or args.theory} on {args.algebra}: {_verdict(ok)}"]
    if not ok:
        human += _witness_text(result, algebra)
    _emit(report, human, args.json)
    return 0 if ok else 1


def _cmd_hypercheck(ws: Workspace, args) -> int:
    algebra = ws.algebra(args.algebra)
    monoid = ws.monoid(args.monoid)
    kind, target = _target(ws, args, algebra)
    result = (
        hyper_satisfies(algebra, target, monoid)
        if kind == "quasi"
        else hyper_satisfies_theory(algebra, target, monoid)
    )
    ok = bool(result)
    report = _report(
        "hypercheck",
        {
            "algebra": args.algebra,
            kind: args.quasi or args.theory,
            "monoid": args.monoid,
            "coverage": monoid.coverage_note(),
        },
        "holds" if ok else "fails",
        witness=None if ok else _witness_json(result, algebra),
    )
    human = [
        f"hypercheck {args.quasi or args.theory} on {args.algebra} "
        f"under {args.monoid} ({monoid.coverage_note()}): {_verdict(ok)}"
    ]
    if not ok:
        human += _witness_text(result, algebra)
    _emit(report, human, args.json)
    return 0 if ok else 1


def _cmd_derive(ws: Workspace, args) -> int:
    algebra = ws.algebra(args.algebra)
    sig, sigma = ws.hypersub(args.sigma)
    require_one_signature((f"algebra {args.algebra}", algebra.sig), (f"hypersub {args.sigma}", sig))
    derived = algebra.derived(sigma)
    human = _write_out(args, render_algebra_file(derived))
    report = _report(
        "derive", {"algebra": args.algebra, "sigma": args.sigma}, "ok", out=args.out
    )
    _emit(report, human, args.json)
    return 0


def _cmd_verify_proof(ws: Workspace, args) -> int:
    proof = ws.proof(args.proof)
    try:
        check_proof(proof)
    except ProofError as exc:
        report = _report(
            "verify-proof",
            {"proof": args.proof},
            "invalid",
            witness={"line": None if exc.line is None else exc.line + 1, "reason": exc.reason},
        )
        _emit(report, [f"proof {args.proof}: {_color('INVALID', '31')}", f"  {exc}"], args.json)
        return 1
    report = _report("verify-proof", {"proof": args.proof}, "valid", witness=None)
    _emit(
        report,
        [f"proof {args.proof}: {_color('VALID', '32')} "
         f"({len(proof.lines)} line(s), conclusion {proof.conclusion()})"],
        args.json,
    )
    return 0


def _cmd_normalize_proof(ws: Workspace, args) -> int:
    proof = ws.proof(args.proof)
    normal = normalize(proof, expand_compat=args.expand_compat)
    human = _write_out(args, render_proof_file(normal))
    report = _report(
        "normalize-proof",
        {"proof": args.proof},
        "ok",
        lines=len(normal.lines),
        conclusion=str(normal.conclusion()),
        out=args.out,
    )
    _emit(report, human, args.json)
    return 0


def _cmd_hyperclose(ws: Workspace, args) -> int:
    theory = ws.theory(args.theory)
    monoid = ws.monoid(args.monoid)
    closed = hyperclose(theory, monoid)
    human = _write_out(args, render_theory_file(closed))
    report = _report(
        "hyperclose",
        {"theory": args.theory, "monoid": args.monoid},
        "ok",
        items=len(closed.items),
        out=args.out,
    )
    _emit(report, human, args.json)
    return 0


def _cmd_saturate(ws: Workspace, args) -> int:
    theory = ws.theory(args.theory)
    monoid = ws.monoid(args.monoid)
    result = saturate(
        theory,
        monoid,
        term_depth_cap=args.term_depth,
        premise_count=args.premises,
        iterations=args.iterations,
    )
    written = _write_out(args, render_theory_file(result.theory))
    report = _report(
        "saturate",
        {
            "theory": args.theory,
            "monoid": args.monoid,
            "caps": {
                "term_depth": args.term_depth,
                "premises": args.premises,
                "iterations": args.iterations,
            },
        },
        "ok",
        items=len(result.theory.items),
        truncated=result.truncated,
        truncated_by=result.truncated_by,
        out=args.out,
    )
    note = {"items": " [truncated by item cap]", "iterations": " [truncated by iteration cap]"}
    head = f"saturated to {len(result.theory.items)} item(s)" + note.get(result.truncated_by, "")
    _emit(report, [head, *written], args.json)
    return 0


def _cmd_solid_check(ws: Workspace, args) -> int:
    theory = ws.theory(args.theory)
    monoid = ws.monoid(args.monoid)
    witnesses = [ws.algebra(name) for name in args.witnesses.split(",")]
    result = check_solidity(theory, witnesses, monoid)
    ok = bool(result)
    witness_json = None
    human = [
        f"solid-check {args.theory} with witnesses {args.witnesses} "
        f"under {args.monoid} ({monoid.coverage_note()}): {_verdict(ok)}"
    ]
    if not ok:
        assert isinstance(result, SolidityReport)
        first = result.failures[0]
        algebra = next(w for w in witnesses if (w.name or "<unnamed>") == first.witness)
        witness_json = {
            "witness": first.witness,
            "sigma": _sigma_json(first.sigma),
            "detail": _witness_json(first.detail, algebra),
            "failures": len(result.failures),
        }
        human.append(f"  witness algebra: {first.witness}")
        human.append(f"  sigma:           {_sigma_text(first.sigma)}")
        human += _witness_text(first.detail, algebra)
    report = _report(
        "solid-check",
        {
            "theory": args.theory,
            "witnesses": args.witnesses,
            "monoid": args.monoid,
            "coverage": monoid.coverage_note(),
        },
        "holds" if ok else "fails",
        witness=witness_json,
    )
    _emit(report, human, args.json)
    return 0 if ok else 1


def _cmd_monoid(ws: Workspace, args) -> int:
    monoid = ws.monoid(args.monoid)
    elements = monoid.elements()
    namer = SigmaNamer()
    names = [namer.get(s) for s in elements]
    if args.action == "list":
        human = [f"monoid {args.monoid}: {monoid.coverage_note()}"]
        for name, sigma in zip(names, elements):
            human.append(f"  {name}: {_sigma_text(sigma)}")
        report = _report(
            "monoid-list",
            {"monoid": args.monoid},
            "ok",
            elements=[_sigma_json(s) for s in elements],
            coverage=monoid.coverage_note(),
        )
        _emit(report, human, args.json)
        return 0
    index = {sigma: name for name, sigma in zip(names, elements)}
    table = []
    human = [f"monoid {args.monoid} composition table ({len(elements)} element(s)):"]
    for a, na in zip(elements, names):
        for b, nb in zip(elements, names):
            c = a.compose(b)
            nc = index.get(c)
            table.append({"left": na, "right": nb, "result": nc})
            human.append(f"  {na} o {nb} = {nc or '<outside>'}")
    report = _report("monoid-closure", {"monoid": args.monoid}, "ok", table=table)
    _emit(report, human, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hql",
        description="Check, derive and prove properties of finite algebras "
        "under hypersubstitution monoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, algebra=False, target=False, monoid=False, proof=False, out=False):
        p.add_argument("files", nargs="+", help="workspace files, loaded in order")
        if algebra:
            p.add_argument("--algebra", required=True)
        if target:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--quasi")
            group.add_argument("--theory")
        if monoid:
            p.add_argument("--monoid", required=True)
        if proof:
            p.add_argument("--proof", required=True)
        if out:
            p.add_argument("--out", help="write the resulting artifact to this file")
        p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("check", help="classical satisfaction in a finite algebra")
    common(p, algebra=True, target=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("hypercheck", help="satisfaction of every monoid image")
    common(p, algebra=True, target=True, monoid=True)
    p.set_defaults(func=_cmd_hypercheck)

    p = sub.add_parser("derive", help="reinterpret operations through a hypersubstitution")
    common(p, algebra=True, out=True)
    p.add_argument("--sigma", required=True)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("verify-proof", help="check a derivation line by line")
    common(p, proof=True)
    p.set_defaults(func=_cmd_verify_proof)

    p = sub.add_parser("normalize-proof", help="push hypersubstitution steps onto hypotheses")
    common(p, proof=True, out=True)
    p.add_argument(
        "--expand-compat",
        action="store_true",
        help="expand generalised compatibility into plain axiom steps",
    )
    p.set_defaults(func=_cmd_normalize_proof)

    p = sub.add_parser("hyperclose", help="close a theory under a monoid")
    common(p, monoid=True, out=True)
    p.add_argument("--theory", required=True)
    p.set_defaults(func=_cmd_hyperclose)

    p = sub.add_parser("saturate", help="bounded forward closure under the calculus rules")
    common(p, monoid=True, out=True)
    p.add_argument("--theory", required=True)
    p.add_argument("--term-depth", type=int, default=3)
    p.add_argument("--premises", type=int, default=4)
    p.add_argument("--iterations", type=int, default=3)
    p.set_defaults(func=_cmd_saturate)

    p = sub.add_parser("solid-check", help="derived algebras of witnesses still model the base")
    common(p, monoid=True)
    p.add_argument("--theory", required=True)
    p.add_argument("--witnesses", required=True, help="comma-separated algebra names")
    p.set_defaults(func=_cmd_solid_check)

    p = sub.add_parser("monoid", help="list a monoid or print its composition table")
    p.add_argument("action", choices=["list", "closure"])
    common(p, monoid=True)
    p.set_defaults(func=_cmd_monoid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ws = Workspace.load(args.files)
        return args.func(ws, args)
    except (ParseError, ResolveError, TermError, MonoidError, AlgebraError, ProofError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: term nesting too deep", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means "refuted", so no crash may exit 1
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
