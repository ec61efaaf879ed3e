"""hql-bench: time to verdict on the hyper, solidity, proofs and cli workloads.

    python3 perfbench/run.py --workload hyper --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Generates the workload's `.hql` inputs
from the seed, runs the questions in fresh `worker.py` processes one at a
time, checks every answer against the independent oracle and prints the
metrics as the last line of standard output, one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones from
a traced process next to an untraced one.  Inputs and traces are written
under `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import oracle as O  # noqa: E402
import workloads as W  # noqa: E402

UNTRACED_WORKERS = 3  # set-up is once per process, so three processes give three samples
DEADLINE_S = 170
README_CMDS = [argv[0] for argv in W.README_COMMANDS]


def _worker(spec: dict, rundir: str, tag: str, deadline: float) -> dict:
    spec_path = os.path.join(rundir, f"spec-{tag}.json")
    out_path = os.path.join(rundir, f"result-{tag}.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    timeout = max(1.0, deadline - time.monotonic())
    done = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), spec_path, out_path],
                          capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {done.returncode}: {done.stderr[-2000:]}")
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def _oracle_work(wl, questions) -> dict:
    """sigma visited and distinct derived algebras per pass, from the oracle."""
    stats: dict = {}
    c = wl.corpus
    for q in questions:
        if q["kind"] == "cli":
            opt = W.options(q["argv"])
            if q["argv"][0] == "hypercheck":
                items = ([c.quasis[opt["quasi"]][1]] if "quasi" in opt
                         else c.theories[opt["theory"]][1])
                q = {"kind": "hyper", "algebra": opt["algebra"], "items": items,
                     "monoid": opt["monoid"]}
            elif q["argv"][0] == "solid-check":
                q = {"kind": "solid", "theory": opt["theory"], "monoid": opt["monoid"],
                     "witnesses": opt["witnesses"].split(",")}
        if q["kind"] == "hyper":
            items = q.get("items") or c.theories[q["theory"]][1]
            O.hyper_witness(c.algebras[q["algebra"]], items, c.elements(q["monoid"]), stats)
        elif q["kind"] == "solid":
            O.solidity_failures(c.theories[q["theory"]][1],
                                [c.algebras[w] for w in q["witnesses"]],
                                c.elements(q["monoid"]), stats)
        elif q["kind"] == "derive":
            alg, memo = c.algebras[q["algebra"]], {}
            sigmas = c.elements(q["monoid"])
            stats["sigmas_visited"] = stats.get("sigmas_visited", 0) + len(sigmas)
            stats["distinct_derived"] = stats.get("distinct_derived", 0) + len(
                {O.derived_tables(alg, s, memo) for s in sigmas})
    return stats


def _tail(times_ms: list) -> dict:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    n = len(times_ms)
    out = {"samples": n, "p50_ms": statistics.median(times_ms)}
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p}_ms"] = statistics.quantiles(times_ms, n=100)[p - 1]
            break
    return out


def _median_pass(results):
    return statistics.median(p["wall"] for r in results for p in r["passes"])


def _interp_ms(root: str) -> tuple:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    bare, imp = [], []
    for _ in range(7):
        for code, sink in (("pass", bare), ("import hql.cli", imp)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            sink.append((time.perf_counter() - t0) * 1000)
    return statistics.median(bare), statistics.median(imp) - statistics.median(bare)


def _layer_metrics(wl, traced: dict, untraced: dict, root: str) -> dict:
    """Per-layer numbers from the traced worker: per pass (median over the
    traced passes) for the layers the workload's questions call, and from
    the README reference block for the layers they never call."""
    setup = traced["trace_setup"]
    ref = traced["reference"]["snapshot"]
    passes = traced["trace_passes"]

    def source(name):
        calls = statistics.median(p["totals"].get(name, {}).get("calls", 0) for p in passes)
        return passes if calls else [ref]

    def span(name, field):
        return statistics.median(p["totals"].get(name, {}).get(field, 0) for p in source(name))

    def count(name, key):
        return statistics.median(p["counts"].get(key, 0) for p in source(name))

    def in_setup(name, field=None, key=None):
        snap = setup if setup["totals"].get(name, {}).get("calls") else ref
        if key:
            return snap["counts"].get(key, 0)
        return snap["totals"].get(name, {}).get(field, 0)

    work = (_oracle_work(wl, wl.questions)
            or _oracle_work(wl, [{"kind": "cli", "argv": a} for a in W.README_COMMANDS]))
    visited = work.get("sigmas_visited", 0)
    distinct = work.get("distinct_derived", 0)
    repeats = max(1, len(traced["setup_s"]))
    interp, imp = _interp_ms(root)
    m = {
        "dsl.load_s": (setup["totals"]["dsl.load"]["incl"] / repeats, "s"),
        "dsl.load_kb": (setup["counts"]["dsl.load.bytes"] / 1024 / repeats, "KB"),
        "hypersubs.elements_s": (in_setup("hypersubs.elements", "incl"), "s"),
        "hypersubs.sigmas": (in_setup("hypersubs.elements", key="hypersubs.elements.items"), "count"),
        "hypersubs.apply_calls": (span("hypersubs.apply", "calls"), "count"),
        "hypersubs.apply_s": (span("hypersubs.apply", "incl"), "s"),
        "algebras.derived_calls": (span("algebras.derived", "calls"), "count"),
        "algebras.derived_s": (span("algebras.derived", "incl"), "s"),
        "algebras.assignments": (count("semantics.satisfies", "algebras.assignments"), "count"),
        "algebras.distinct_derived": (distinct, "count"),
        "algebras.derived_useful_ratio": (distinct / visited if visited else 0.0, "ratio"),
        "semantics.satisfies_calls": (span("semantics.satisfies", "calls"), "count"),
        "semantics.satisfies_self_s": (span("semantics.satisfies", "self"), "s"),
        "semantics.hyper_s": (span("semantics.hyper", "outer"), "s"),
        "semantics.solidity_s": (span("semantics.solidity", "outer"), "s"),
        "terms.key_calls": (span("terms.key", "calls"), "count"),
        "terms.key_s": (span("terms.key", "incl"), "s"),
        "proofs.saturate_s": (span("proofs.saturate", "outer"), "s"),
        "proofs.saturate_items": (count("proofs.saturate", "proofs.saturate.items"), "count"),
        "proofs.builder_add_calls": (span("proofs.builder_add", "calls"), "count"),
        "proofs.check_s": (span("proofs.check", "outer"), "s"),
        "proofs.check_lines": (count("proofs.check", "proofs.check.lines"), "count"),
        "proofs.normalize_s": (span("proofs.normalize", "outer"), "s"),
        "proofs.normalize_lines": (count("proofs.normalize", "proofs.normalize.items"), "count"),
        "proofs.hyperclose_s": (span("proofs.hyperclose", "outer"), "s"),
        "proofs.hyperclose_items": (count("proofs.hyperclose", "proofs.hyperclose.items"), "count"),
        "cli.interp_ms": (interp, "ms"),
        "cli.import_ms": (imp, "ms"),
    }
    for cmd in README_CMDS:
        samples = [p["times"][i] * 1000 for p in untraced["passes"]
                   for i, q in enumerate(wl.questions)
                   if q["kind"] == "cli" and q["argv"][0] == cmd]
        value = statistics.median(samples) if samples else traced["reference"]["times_ms"][cmd]
        m[f"cli.cmd.{cmd}_ms"] = (value, "ms")
    m["trace.overhead_s"] = (_median_pass([traced]) - _median_pass([untraced]), "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hql", "cli.py")):
        print("run from the root of an hql checkout (src/hql not found)", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    wl = W.generate(args.workload, args.seed, root)
    rundir = os.path.join(root, ".perfbench_out", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    gen_name, gen_text = wl.files[-1]
    gen_path = os.path.join(rundir, gen_name)
    with open(gen_path, "w", encoding="utf-8") as handle:
        handle.write(gen_text)
    fixtures = [os.path.join(root, "src", "hql", "fixtures", n) for n in W.FIXTURES]
    spec = {"workload": args.workload, "root": root, "bench": BENCH, "rundir": rundir,
            "files": fixtures + [gen_path], "fixtures": fixtures, "monoids": wl.monoids,
            "questions": wl.questions, "setup_repeats": 5, "trace": False}
    gen_s = time.perf_counter() - t0

    if args.trace:
        untraced = _worker(dict(spec, seconds=args.seconds / 2), rundir, "untraced", deadline)
        traced = _worker(dict(spec, seconds=args.seconds / 2, trace=True,
                              reference=W.README_COMMANDS), rundir, "traced", deadline)
        results = [untraced, traced]
    else:
        share = args.seconds / UNTRACED_WORKERS
        results = [_worker(dict(spec, seconds=share), rundir, f"w{k}", deadline)
                   for k in range(UNTRACED_WORKERS)]

    t1 = time.perf_counter()
    reference = results[0]["digests"][0]
    problems = {}
    for i, out in enumerate(results[0]["outputs"]):
        problem = W.check(wl, i, out)
        if problem:
            problems[i] = problem
    attempted = failed = 0
    for r in results:
        for digests in r["digests"]:
            for i, d in enumerate(digests):
                attempted += 1
                if i in problems or d != reference[i]:
                    failed += 1
                    problems.setdefault(i, "answer differs between passes")
    check_s = time.perf_counter() - t1
    for i, problem in sorted(problems.items()):
        print(f"FAILED question {i} ({wl.questions[i]['kind']}): {problem}", file=sys.stderr)

    if args.trace:
        metrics = _layer_metrics(wl, traced, untraced, root)
        with open(os.path.join(rundir, "trace.json"), "w", encoding="utf-8") as handle:
            json.dump({"setup": traced["trace_setup"], "passes": traced["trace_passes"],
                       "spans": traced["spans"]}, handle)
    else:
        times_ms = [t * 1000 for r in results for p in r["passes"] for t in p["times"]]
        metrics = {
            "setup_s": (statistics.median(s for r in results for s in r["setup_s"]), "s"),
            "pass_s": (_median_pass(results), "s"),
            "verdict_p50_ms": (statistics.median(times_ms), "ms"),
            "peak_rss_mb": (max(r["maxrss_kb"] for r in results) / 1024, "MB"),
        }
        detail = _tail(times_ms)
        detail.update(passes=sum(len(r["passes"]) for r in results),
                      questions=len(wl.questions), generate_s=gen_s, check_s=check_s)
        print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not any(not p.startswith("raised") for p in problems.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
