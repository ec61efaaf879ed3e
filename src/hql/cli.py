"""Command-line front end.

Every command loads one or more workspace files (order matters: later
definitions may reference earlier ones), resolves named objects, runs one
check or transformation, and returns a report: a JSON document (`--json`)
and the human-readable lines printed without it.  Exit codes are a stable
contract, decided in `main` by the report's `result` alone:

    holds, ok, valid    0   the property holds / the command succeeded
    fails, invalid      1   refuted or invalid, with a witness
    (no report)         2   usage, parse or resolution errors

Set HQL_COLOR=1 to colour verdicts.
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
from .hypersubs import MAX_PRESET_MEMBERS, MonoidError
from .proofs import ProofError, check_proof, hyperclose, normalize, saturate
from .semantics import (
    CounterExample,
    check_solidity,
    hyper_satisfies,
    hyper_satisfies_theory,
    require_one_signature,
    satisfies,
    satisfies_theory,
)
from .terms import TermError

# The exit code of each report `result`.  A result missing here is an
# internal error, which exits 2: exit 1 means "refuted".
EXIT_CODES = {"holds": 0, "ok": 0, "valid": 0, "fails": 1, "invalid": 1}


def _color(text: str, code: str) -> str:
    if os.environ.get("HQL_COLOR") == "1":
        return f"\033[{code}m{text}\033[0m"
    return text


def _sigma_text(sigma) -> str:
    return "; ".join(f"{op} -> {format_term(img)}" for op, img in sigma.images)


def _sigma_json(sigma) -> dict | None:
    if sigma is None:
        return None
    return {op: format_term(img) for op, img in sigma.images}


def _witness(cex: CounterExample, algebra: FiniteAlgebra) -> tuple[dict, list[str]]:
    """A counterexample's JSON form and its human lines."""
    universe = algebra.universe
    env = sorted(cex.assignment.items())
    witness = {
        "sigma": _sigma_json(cex.sigma),
        "assignment": {f"x{v}": universe[e] for v, e in env},
        "failed": str(cex.failed),
        "lhs": universe[cex.lhs_value],
        "rhs": universe[cex.rhs_value],
        "item": cex.item,
        "label": cex.label,
    }
    lines = [] if cex.item is None else [f"  item:       #{cex.item}"]
    if cex.sigma is not None:
        lines.append(f"  sigma:      {_sigma_text(cex.sigma)}")
    lines += [
        "  assignment: " + ", ".join(f"x{v} = {universe[e]}" for v, e in env),
        f"  failed:     {cex.failed}",
        f"  values:     {witness['lhs']} != {witness['rhs']}",
    ]
    return witness, lines


def _report(check: str, inputs: dict, result: str, **extra) -> dict:
    return {"schema": 1, "check": check, "inputs": inputs, "result": result, **extra}


def _verdict(check: str, inputs: dict, head: str, witness) -> tuple[dict, list[str]]:
    """A `holds` report, or a `fails` one when there is a `witness` (its
    JSON form and its human lines); `head` names the question."""
    if witness is None:
        return _report(check, inputs, "holds", witness=None), [f"{head}: {_color('HOLDS', '32')}"]
    witness_json, lines = witness
    report = _report(check, inputs, "fails", witness=witness_json)
    return report, [f"{head}: {_color('FAILS', '31')}", *lines]


def _artifact(
    check: str, inputs: dict, args, text: str, *head: str, **extra
) -> tuple[dict, list[str]]:
    """An `ok` report for the artifact `text`.  The human lines are `head`,
    then `text` itself, or a note that it went to `--out`."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        written = f"wrote {args.out}"
    else:
        written = text.rstrip()
    return _report(check, inputs, "ok", **extra, out=args.out), [*head, written]


def _target(ws: Workspace, args, algebra: FiniteAlgebra) -> tuple[str, str, object]:
    """The --quasi or --theory option: its kind, name and object, which must
    be over the algebra's signature."""
    if args.quasi:
        kind, name = "quasi", args.quasi
        sig, target = ws.quasi(name)
    else:
        kind, name = "theory", args.theory
        target = ws.theory(name)
        sig = target.sig
    require_one_signature((f"algebra {args.algebra}", algebra.sig), (f"{kind} {name}", sig))
    return kind, name, target


def _cmd_check(ws: Workspace, args) -> tuple[dict, list[str]]:
    algebra = ws.algebra(args.algebra)
    kind, name, target = _target(ws, args, algebra)
    result = satisfies(algebra, target) if kind == "quasi" else satisfies_theory(algebra, target)
    return _verdict(
        "check",
        {"algebra": args.algebra, kind: name},
        f"check {name} on {args.algebra}",
        None if result else _witness(result, algebra),
    )


def _cmd_hypercheck(ws: Workspace, args) -> tuple[dict, list[str]]:
    algebra = ws.algebra(args.algebra)
    monoid = ws.monoid(args.monoid)
    kind, name, target = _target(ws, args, algebra)
    result = (
        hyper_satisfies(algebra, target, monoid)
        if kind == "quasi"
        else hyper_satisfies_theory(algebra, target, monoid)
    )
    coverage = monoid.coverage_note()
    return _verdict(
        "hypercheck",
        {"algebra": args.algebra, kind: name, "monoid": args.monoid, "coverage": coverage},
        f"hypercheck {name} on {args.algebra} under {args.monoid} ({coverage})",
        None if result else _witness(result, algebra),
    )


def _cmd_derive(ws: Workspace, args) -> tuple[dict, list[str]]:
    algebra = ws.algebra(args.algebra)
    sig, sigma = ws.hypersub(args.sigma)
    require_one_signature((f"algebra {args.algebra}", algebra.sig), (f"hypersub {args.sigma}", sig))
    text = render_algebra_file(algebra.derived(sigma))
    return _artifact("derive", {"algebra": args.algebra, "sigma": args.sigma}, args, text)


def _cmd_verify_proof(ws: Workspace, args) -> tuple[dict, list[str]]:
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
        return report, [f"proof {args.proof}: {_color('INVALID', '31')}", f"  {exc}"]
    report = _report("verify-proof", {"proof": args.proof}, "valid", witness=None)
    return report, [
        f"proof {args.proof}: {_color('VALID', '32')} "
        f"({len(proof.lines)} line(s), conclusion {proof.conclusion()})"
    ]


def _cmd_normalize_proof(ws: Workspace, args) -> tuple[dict, list[str]]:
    proof = ws.proof(args.proof)
    normal = normalize(proof, expand_compat=args.expand_compat)
    return _artifact(
        "normalize-proof",
        {"proof": args.proof},
        args,
        render_proof_file(normal),
        lines=len(normal.lines),
        conclusion=str(normal.conclusion()),
    )


def _cmd_hyperclose(ws: Workspace, args) -> tuple[dict, list[str]]:
    theory = ws.theory(args.theory)
    monoid = ws.monoid(args.monoid)
    closed = hyperclose(theory, monoid)
    return _artifact(
        "hyperclose",
        {"theory": args.theory, "monoid": args.monoid},
        args,
        render_theory_file(closed),
        items=len(closed.items),
    )


def _cmd_saturate(ws: Workspace, args) -> tuple[dict, list[str]]:
    theory = ws.theory(args.theory)
    monoid = ws.monoid(args.monoid)
    result = saturate(
        theory,
        monoid,
        term_depth_cap=args.term_depth,
        premise_count=args.premises,
        iterations=args.iterations,
    )
    items = len(result.theory.items)
    note = {"items": " [truncated by item cap]", "iterations": " [truncated by iteration cap]"}
    caps = {"term_depth": args.term_depth, "premises": args.premises, "iterations": args.iterations}
    return _artifact(
        "saturate",
        {"theory": args.theory, "monoid": args.monoid, "caps": caps},
        args,
        render_theory_file(result.theory),
        f"saturated to {items} item(s)" + note.get(result.truncated_by, ""),
        items=items,
        truncated=result.truncated,
        truncated_by=result.truncated_by,
    )


def _cmd_solid_check(ws: Workspace, args) -> tuple[dict, list[str]]:
    theory = ws.theory(args.theory)
    monoid = ws.monoid(args.monoid)
    witnesses = [ws.algebra(name) for name in args.witnesses.split(",")]
    result = check_solidity(theory, witnesses, monoid)
    witness = None
    if not result:
        first = result.failures[0]
        detail, lines = _witness(first.detail, ws.algebra(first.witness))
        witness = (
            {
                "witness": first.witness,
                "sigma": _sigma_json(first.sigma),
                "detail": detail,
                "failures": len(result.failures),
            },
            [
                f"  witness algebra: {first.witness}",
                f"  sigma:           {_sigma_text(first.sigma)}",
                *lines,
            ],
        )
    coverage = monoid.coverage_note()
    inputs = {
        "theory": args.theory,
        "witnesses": args.witnesses,
        "monoid": args.monoid,
        "coverage": coverage,
    }
    head = f"solid-check {args.theory} with witnesses {args.witnesses} under {args.monoid}"
    return _verdict("solid-check", inputs, f"{head} ({coverage})", witness)


def _cmd_monoid(ws: Workspace, args) -> tuple[dict, list[str]]:
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
        return report, human
    if len(elements) ** 2 > MAX_PRESET_MEMBERS:
        raise MonoidError(
            f"monoid {args.monoid} has {len(elements):,} members: its composition table would have "
            f"{len(elements) ** 2:,} entries, more than the {MAX_PRESET_MEMBERS:,} that can be listed"
        )
    index = {sigma: name for name, sigma in zip(names, elements)}
    table = []
    human = [f"monoid {args.monoid} composition table ({len(elements)} element(s)):"]
    for a, na in zip(elements, names):
        for b, nb in zip(elements, names):
            c = a.compose(b)
            nc = index.get(c)
            table.append({"left": na, "right": nb, "result": nc})
            human.append(f"  {na} o {nb} = {nc or '<outside>'}")
    return _report("monoid-closure", {"monoid": args.monoid}, "ok", table=table), human


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
        report, human = args.func(ws, args)
        code = EXIT_CODES[report["result"]]
        print(json.dumps(report, indent=2) if args.json else "\n".join(human))
        return code
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
