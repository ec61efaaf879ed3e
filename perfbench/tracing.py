"""Spans around the public entry points of each hql module.

`install()` replaces the named functions and methods with wrappers that
time every call on a stack, so a span's self time is its duration minus
the time covered by its child spans.  Totals per span name are kept in
memory; individual spans are kept for the outer levels only (question and
API call), since the innermost names (`QuasiEquation.key`,
`HyperSub.apply_quasi`) run hundreds of thousands of times per pass.
Nothing here runs in an untraced run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

KEEP_DEPTH = 3

# (metric name, module, attribute path, count of a result field or None)
TARGETS = [
    ("dsl.load", "hql.dsl", "Workspace.load_text", None),
    ("hypersubs.elements", "hql.hypersubs", "Monoid.elements", "len"),
    ("hypersubs.apply", "hql.hypersubs", "HyperSub.apply_quasi", None),
    ("algebras.derived", "hql.algebras", "FiniteAlgebra.derived", None),
    ("semantics.satisfies", "hql.semantics", "satisfies", None),
    ("semantics.hyper", "hql.semantics", "hyper_satisfies_theory", None),
    ("semantics.hyper", "hql.semantics", "hyper_satisfies", None),
    ("semantics.solidity", "hql.semantics", "check_solidity", None),
    ("terms.key", "hql.terms", "QuasiEquation.key", None),
    ("proofs.saturate", "hql.proofs", "saturate", "theory.items"),
    ("proofs.builder_add", "hql.proofs", "ProofBuilder.add", None),
    ("proofs.check", "hql.proofs", "check_proof", "arg.lines"),
    ("proofs.normalize", "hql.proofs", "normalize", "lines"),
    ("proofs.hyperclose", "hql.proofs", "hyperclose", "items"),
]


class Tracer:
    def __init__(self):
        self.stack: list = []
        self.totals: dict = {}
        self.spans: list = []
        self.counts: dict = {}

    def _stat(self, name):
        if name not in self.totals:
            self.totals[name] = {"calls": 0, "incl": 0.0, "self": 0.0, "outer": 0.0}
        return self.totals[name]

    def enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])

    def leave(self):
        name, t0, child = self.stack.pop()
        t1 = time.perf_counter()
        d = t1 - t0
        st = self._stat(name)
        st["calls"] += 1
        st["incl"] += d
        st["self"] += d - child
        if not any(f[0] == name for f in self.stack):
            st["outer"] += d
        if self.stack:
            self.stack[-1][2] += d
        if len(self.stack) < KEEP_DEPTH:
            self.spans.append((name, t0, t1, len(self.stack)))

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def snapshot(self) -> dict:
        return {"totals": {k: dict(v) for k, v in self.totals.items()},
                "counts": dict(self.counts)}

    def wrap(self, name, fn, measure):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if measure == "len":
                self.count(name + ".items", len(result))
            elif measure == "arg.lines":
                self.count(name + ".lines", len(args[0].lines))
            elif measure:
                obj = result
                for part in measure.split("."):
                    obj = getattr(obj, part)
                self.count(name + ".items", len(obj))
            if name == "dsl.load":
                self.count("dsl.load.bytes", len(args[1].encode("utf-8")))
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            n = 0
            for value in fn(*args, **kwargs):
                n += 1
                yield value
            self.count(name, n)

        return traced


def install(tracer: Tracer) -> None:
    """Replace every target, and every other reference to the same function
    that an hql module imported by name, with its traced wrapper."""
    modules = [importlib.import_module(m) for m in
               ("hql.terms", "hql.hypersubs", "hql.algebras", "hql.semantics",
                "hql.proofs", "hql.dsl", "hql.cli", "hql")]
    for name, modname, path, measure in TARGETS:
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        traced = tracer.wrap(name, fn, measure)
        setattr(owner, attr, traced)
        if not outer:
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    setattr(mod, attr, traced)
    algebras = importlib.import_module("hql.algebras")
    algebras.FiniteAlgebra.assignments = tracer.wrap_generator(
        "algebras.assignments", algebras.FiniteAlgebra.assignments)


def main(argv) -> int:
    """Run `hql.cli.main(argv)` traced; write totals to the file named by
    the first argument.  Used for the CLI workload's traced pass."""
    out, args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("hql.cli")
    try:
        code = cli.main(args)
    finally:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"snapshot": tracer.snapshot(), "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
