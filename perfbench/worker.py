"""One benchmark process: set up, then answer every question in passes.

Run by `run.py` in a fresh interpreter, one at a time.  Reads a spec
(files, questions, time budget) written by `run.py`, imports `hql` from
the checkout's `src`, times the set-up (parsing the corpus and the first
enumeration of each monoid) and then whole passes over the questions until
the budget is spent.  Only the program's calls sit inside the timers;
preparing inputs and serialising answers happen outside them.  Writes the
timings, the first pass's answers, a digest of every answer of every pass
and the process's peak resident set as JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time


def _load(spec):
    import hql.dsl as dsl

    texts = []
    for path in spec["files"]:
        with open(path, encoding="utf-8") as handle:
            texts.append((path, handle.read()))
    t0 = time.perf_counter()
    ws = dsl.Workspace()
    for path, text in texts:
        ws.load_text(text, filename=path)
    for name in spec["monoids"]:
        ws.monoid(name).elements()
    return ws, time.perf_counter() - t0


def _cli_setup(spec):
    """On the CLI workload set-up is the in-process parse of the files the
    commands load; it has no cache, so it is repeated."""
    import hql.dsl as dsl

    times = []
    for _ in range(spec["setup_repeats"]):
        t0 = time.perf_counter()
        dsl.Workspace.load(spec["files"])
        times.append(time.perf_counter() - t0)
    return None, times


# -- question runners: prepare (untimed) returns the timed call -------------


def _prepare(ws, q, ctx):
    import hql.algebras as A
    import hql.proofs as P
    import hql.semantics as S
    import hql.terms as T

    kind = q["kind"]
    if kind == "hyper":
        a, t, m = ws.algebra(q["algebra"]), ws.theory(q["theory"]), ws.monoid(q["monoid"])
        return lambda: S.hyper_satisfies_theory(a, t, m)
    if kind == "solid":
        t, m = ws.theory(q["theory"]), ws.monoid(q["monoid"])
        wits = [ws.algebra(w) for w in q["witnesses"]]
        return lambda: S.check_solidity(t, wits, m)
    if kind == "derive":
        a, sigmas = ws.algebra(q["algebra"]), ws.monoid(q["monoid"]).elements()
        return lambda: [A.FiniteAlgebra.derived(a, s) for s in sigmas]
    if kind == "saturate":
        t, m = ws.theory(q["theory"]), ws.monoid(q["monoid"])
        return lambda: P.saturate(t, m, q["depth"], q["premises"], q["iterations"],
                                  q["max_items"])
    if kind == "check_saturated":
        proof = ctx[q["of"]].proof
        if "alter" in q:
            proof, info = _altered(proof, q["alter"], P, T)
        else:
            info = {}
        return lambda: _verdict(P, proof, info)
    if kind == "check_proof":
        proof = ws.proof(q["proof"])
        return lambda: _verdict(P, proof, {})
    if kind == "normalize":
        proof = ws.proof(q["proof"])
        return lambda: P.normalize(proof)
    if kind == "hyperclose":
        t, m = ws.theory(q["theory"]), ws.monoid(q["monoid"])
        return lambda: P.hyperclose(t, m)
    if kind == "cli":
        return _cli_call(q, ctx)
    raise ValueError(f"unknown question kind {kind!r}")


def _verdict(P, proof, info):
    try:
        P.check_proof(proof)
    except P.ProofError as exc:
        return dict(info, error_line=exc.line)
    return dict(info, valid=True)


def _altered(proof, salt, P, T):
    """The proof with one stated conclusion reversed, in its second half."""
    cands = [i for i, (q, _) in enumerate(proof.lines)
             if i > 0 and q.conclusion.lhs != q.conclusion.rhs]
    cands = cands[len(cands) // 2:]
    k = cands[salt % len(cands)]
    lines = list(proof.lines)
    q, j = lines[k]
    altered = T.QuasiEquation(q.premises, T.Equation(q.conclusion.rhs, q.conclusion.lhs))
    lines[k] = (altered, j)
    info = {"altered_line": k, "original": str(q), "altered": str(altered)}
    return P.Proof(proof.theory, proof.logic, tuple(lines), name=proof.name), info


def _cli_call(q, ctx):
    spec = ctx["spec"]
    argv = []
    for a in q["argv"]:
        if a == "$FIX":
            argv += spec["fixtures"]
        elif a == "$GEN":
            argv.append(spec["files"][-1])
        else:
            argv.append(a)
    if ctx.get("trace_dir"):
        n = ctx["trace_n"] = ctx.get("trace_n", 0) + 1
        out = os.path.join(ctx["trace_dir"], f"cli-{n}.json")
        ctx.setdefault("trace_files", []).append(out)
        cmd = [sys.executable, os.path.join(spec["bench"], "tracing.py"), out, *argv]
    else:
        cmd = [sys.executable, "-m", "hql.cli", *argv]
    env = dict(os.environ, PYTHONPATH=os.path.join(spec["root"], "src"))
    env.pop("HQL_COLOR", None)

    def call():
        done = subprocess.run(cmd, cwd=spec["rundir"], env=env, capture_output=True,
                              text=True, timeout=60)
        return {"code": done.returncode, "stdout": done.stdout, "stderr": done.stderr}

    return call


# -- answers as JSON ------------------------------------------------------


def _serialise(q, raw, spec):
    import hql.dsl as dsl
    import hql.terms as T

    kind = q["kind"]
    if kind == "hyper":
        if raw is True:
            return None
        return {"item": raw.item, "sigma": [T.format_term(img) for _, img in raw.sigma.images],
                "assignment": {str(v): e for v, e in sorted(raw.assignment.items())},
                "lhs": raw.lhs_value, "rhs": raw.rhs_value, "failed": str(raw.failed)}
    if kind == "solid":
        if raw is True:
            return []
        return [[f.witness, [T.format_term(img) for _, img in f.sigma.images], f.detail.item,
                 {str(v): e for v, e in sorted(f.detail.assignment.items())},
                 f.detail.lhs_value, f.detail.rhs_value] for f in raw.failures]
    if kind == "derive":
        return [[list(a.table(op)) for op, _ in a.sig.ops] for a in raw]
    if kind == "saturate":
        return {"items": [str(i) for i in raw.theory.items], "truncated": raw.truncated}
    if kind in ("check_saturated", "check_proof"):
        return raw
    if kind == "normalize":
        return dsl.render_proof_file(raw)
    if kind == "hyperclose":
        return [str(i) for i in raw.items]
    if kind == "cli":
        files = {}
        argv = q["argv"]
        if "--out" in argv:
            path = os.path.join(spec["rundir"], argv[argv.index("--out") + 1])
            with open(path, encoding="utf-8") as handle:
                files[argv[argv.index("--out") + 1]] = handle.read()
        return dict(raw, files=files)
    raise ValueError(kind)


def _pass(ws, spec, ctx):
    times, raws = [], []
    t_pass = time.perf_counter()
    tracer = ctx.get("tracer")
    for q in spec["questions"]:
        if tracer:
            tracer.enter("question." + q["kind"])
        try:
            call = _prepare(ws, q, ctx)
            t0 = time.perf_counter()
            raw = call()
            times.append(time.perf_counter() - t0)
        except Exception as exc:  # a failed question is counted, the run goes on
            times.append(0.0)
            raw = {"error": repr(exc)}
        finally:
            if tracer:
                tracer.leave()
        raws.append(raw)
        ctx[len(raws) - 1] = raw
    return time.perf_counter() - t_pass, times, raws


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if spec["workload"] == "cli":
        ws, setup = _cli_setup(spec)
    else:
        ws, t = _load(spec)
        setup = [t]
    result = {"setup_s": setup, "passes": [], "digests": [], "outputs": None}
    if tracer:
        result["trace_setup"] = tracer.snapshot()
        result["trace_passes"] = []
    ctx = {"spec": spec, "tracer": tracer}
    if tracer and spec["workload"] == "cli":
        ctx["trace_dir"] = spec["rundir"]
    t_start = time.perf_counter()
    while True:
        before = tracer.snapshot() if tracer else None
        ctx.pop("trace_files", None)
        wall, times, raws = _pass(ws, spec, ctx)
        outputs = []
        for q, raw in zip(spec["questions"], raws):
            try:
                outputs.append(raw if isinstance(raw, dict) and "error" in raw
                               else _serialise(q, raw, spec))
            except Exception as exc:  # recorded as a failed answer
                outputs.append({"error": repr(exc)})
        digests = [hashlib.sha256(json.dumps(o, sort_keys=True).encode()).hexdigest()
                   for o in outputs]
        if result["outputs"] is None:
            result["outputs"] = outputs
        result["passes"].append({"wall": wall, "times": times})
        result["digests"].append(digests)
        if tracer:
            snap = tracer.snapshot()
            for path in ctx.get("trace_files", []):
                with open(path, encoding="utf-8") as handle:
                    child = json.load(handle)["snapshot"]
                _merge(snap, child)
            result["trace_passes"].append(_delta(snap, before))
        elapsed = time.perf_counter() - t_start
        if elapsed >= spec["seconds"] - 0.5 * wall:
            break
    who = resource.RUSAGE_CHILDREN if spec["workload"] == "cli" else resource.RUSAGE_SELF
    result["maxrss_kb"] = resource.getrusage(who).ru_maxrss
    if tracer:
        result["spans"] = tracer.spans
        result["reference"] = _reference(spec)
    with open(sys.argv[2], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _reference(spec):
    """The README commands once each through `tracing.py` in child
    processes, after the passes: the numbers for layers that the workload's
    own questions never call."""
    ctx = {"spec": spec, "trace_dir": spec["rundir"], "trace_n": 1000}
    times = {}
    for argv in spec["reference"]:
        call = _cli_call({"argv": argv}, ctx)
        t0 = time.perf_counter()
        call()
        times[argv[0]] = (time.perf_counter() - t0) * 1000
    snap = {"totals": {}, "counts": {}}
    for path in ctx["trace_files"]:
        with open(path, encoding="utf-8") as handle:
            _merge(snap, json.load(handle)["snapshot"])
    return {"times_ms": times, "snapshot": snap}


def _merge(into, child):
    for name, st in child["totals"].items():
        cur = into["totals"].setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0, "outer": 0.0})
        for k in cur:
            cur[k] += st[k]
    for name, n in child["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + n


def _delta(after, before):
    out = {"totals": {}, "counts": {}}
    for name, st in after["totals"].items():
        prev = before["totals"].get(name, {})
        out["totals"][name] = {k: v - prev.get(k, 0) for k, v in st.items()}
    for name, n in after["counts"].items():
        out["counts"][name] = n - before["counts"].get(name, 0)
    return out


if __name__ == "__main__":
    sys.exit(main())
