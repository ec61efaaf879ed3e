"""Independent reference answers for the benchmark.

Standard library only, and no code shared with `hql`: its own reader for
the `.hql` text format, its own table evaluator (value vectors over all
assignments at once), the derived-algebra bridge `A |= sigma(q)  iff
A^sigma |= q`, canonical enumeration of every monoid preset, first-in-order
witness search, solidity failure lists, hyperclosure and a proof checker.
Everything here runs outside the timed regions.

Terms are plain values: a variable is its index (an int), an application is
a tuple `(op, arg1, ..., argn)`; a constant is `(op,)`.  An equation is a
pair `(lhs, rhs)`; a quasi-equation is `(premises, conclusion)` with the
premises a duplicate-free tuple in first-occurrence order.
"""

from __future__ import annotations

import itertools
import re


class OracleError(Exception):
    """The oracle could not read an input, or a check it runs failed."""


# -- terms ---------------------------------------------------------------


def fmt(t) -> str:
    if isinstance(t, int):
        return f"x{t}"
    if len(t) == 1:
        return t[0]
    return f"{t[0]}({', '.join(fmt(a) for a in t[1:])})"


def fmt_eq(eq) -> str:
    return f"{fmt(eq[0])} = {fmt(eq[1])}"


def fmt_quasi(q) -> str:
    prem, concl = q
    if not prem:
        return fmt_eq(concl)
    return ", ".join(fmt_eq(p) for p in prem) + " => " + fmt_eq(concl)


def term_key(t):
    """Variables first (by index), then applications by symbol, then args."""
    if isinstance(t, int):
        return (0, t)
    return (1, t[0], tuple(term_key(a) for a in t[1:]))


def tvars(t, out=None) -> set:
    out = set() if out is None else out
    if isinstance(t, int):
        out.add(t)
    else:
        for a in t[1:]:
            tvars(a, out)
    return out


def qvars(q) -> set:
    out: set = set()
    for lhs, rhs in (*q[0], q[1]):
        tvars(lhs, out)
        tvars(rhs, out)
    return out


def depth(t) -> int:
    if isinstance(t, int) or len(t) == 1:
        return 0
    return 1 + max(depth(a) for a in t[1:])


def subst(t, mapping):
    if isinstance(t, int):
        return mapping.get(t, t)
    return (t[0],) + tuple(subst(a, mapping) for a in t[1:])


def dedup(eqs) -> tuple:
    out = []
    for e in eqs:
        if e not in out:
            out.append(e)
    return tuple(out)


def make_quasi(premises, conclusion):
    return (dedup(premises), conclusion)


def qkey(q):
    return (frozenset(q[0]), q[1])


def map_quasi(q, f):
    return make_quasi([(f(a), f(b)) for a, b in q[0]], (f(q[1][0]), f(q[1][1])))


def apply_sigma(images: dict, t):
    """Inductive action of a hypersubstitution (op -> image term)."""
    if isinstance(t, int):
        return t
    args = {i: apply_sigma(images, a) for i, a in enumerate(t[1:])}
    return subst(images[t[0]], args)


def compose(sig, outer: dict, inner: dict) -> dict:
    return {op: apply_sigma(outer, inner[op]) for op, _ in sig.ops}


def sigma_key(sig, images: dict):
    return tuple(term_key(images[op]) for op, _ in sig.ops)


# -- signatures and algebras ---------------------------------------------


class Sig:
    def __init__(self, name: str, ops):
        self.name = name
        self.ops = tuple(ops)
        self.arity = dict(self.ops)


class Alg:
    def __init__(self, name: str, sig: Sig, labels, tables: dict):
        self.name = name
        self.sig = sig
        self.labels = tuple(labels)
        self.size = len(self.labels)
        self.tables = {op: tuple(tables[op]) for op, _ in sig.ops}


def vectors(tables: dict, size: int, terms, var_order):
    """Value vector of every term over all assignments to `var_order`
    (lexicographic, first variable slowest)."""
    envs = list(itertools.product(range(size), repeat=len(var_order)))
    memo: dict = {}
    for pos, v in enumerate(var_order):
        memo[v] = [e[pos] for e in envs]

    def vec(t):
        if t in memo:
            return memo[t]
        if isinstance(t, int):
            raise OracleError(f"unassigned variable x{t}")
        table = tables[t[0]]
        if len(t) == 1:
            out = [table[0]] * len(envs)
        else:
            cols = [vec(a) for a in t[1:]]
            out = []
            for vals in zip(*cols):
                p = 0
                for x in vals:
                    p = p * size + x
                out.append(table[p])
        memo[t] = out
        return out

    return envs, [vec(t) for t in terms]


def term_table(alg: Alg, t, arity: int) -> tuple:
    _, (v,) = vectors(alg.tables, alg.size, [t], list(range(arity)))
    return tuple(v)


def derived_tables(alg: Alg, images: dict, memo=None) -> tuple:
    """Tables of A^sigma in signature order; `memo` caches per image term."""
    out = []
    for op, n in alg.sig.ops:
        img = images[op]
        if memo is not None and (op, img) in memo:
            out.append(memo[(op, img)])
            continue
        tab = term_table(alg, img, n)
        if memo is not None:
            memo[(op, img)] = tab
        out.append(tab)
    return tuple(out)


def first_failure(tables: dict, size: int, q):
    """Lexicographically first assignment (variables ascending) meeting every
    premise and breaking the conclusion: (env, lhs, rhs) or None."""
    vs = sorted(qvars(q))
    terms = [t for eq in (*q[0], q[1]) for t in eq]
    envs, vecs = vectors(tables, size, terms, vs)
    npre = len(q[0])
    for i in range(len(envs)):
        if all(vecs[2 * k][i] == vecs[2 * k + 1][i] for k in range(npre)):
            lhs, rhs = vecs[2 * npre][i], vecs[2 * npre + 1][i]
            if lhs != rhs:
                return dict(zip(vs, envs[i])), lhs, rhs
    return None


def tables_dict(sig: Sig, tabs: tuple) -> dict:
    return {op: t for (op, _), t in zip(sig.ops, tabs)}


def models(alg: Alg, items) -> bool:
    return all(first_failure(alg.tables, alg.size, q) is None for q in items)


# -- canonical monoid enumeration ------------------------------------------


def terms_upto(sig: Sig, nvars: int, d: int) -> list:
    """Every term over x0..x_{nvars-1} and the constants with depth <= d."""
    atoms = list(range(nvars)) + [(op,) for op, n in sig.ops if n == 0]
    layer = list(atoms)
    for _ in range(d):
        nxt = list(atoms)
        for op, n in sig.ops:
            if n:
                nxt += [(op,) + args for args in itertools.product(layer, repeat=n)]
        layer = nxt
    return layer


def depth_slice_count(sig: Sig, d: int) -> int:
    """Closed form: T(0) = n + c, T(d) = n + c + sum over ops of arity >= 1
    of T(d-1)^arity, with n the variables of the image and c the constants;
    |depth(d)| is the product over operations of T at that arity."""
    consts = sum(1 for _, n in sig.ops if n == 0)
    total = 1
    for _, n in sig.ops:
        t = n + consts
        for _ in range(d):
            t = n + consts + sum(t**k for _, k in sig.ops if k >= 1)
        total *= t
    return total


def _product_sigmas(sig: Sig, choices) -> list:
    per_op = [sorted(set(c), key=term_key) for c in choices]
    return [
        dict(zip((op for op, _ in sig.ops), combo))
        for combo in itertools.product(*per_op)
    ]


def identity(sig: Sig) -> dict:
    return {op: (op,) + tuple(range(n)) for op, n in sig.ops}


def monoid_elements(spec: dict, sig: Sig, hypersubs: dict) -> list:
    """Members in canonical order (sorted by the image term order)."""
    kind = spec["kind"]
    if kind == "trivial":
        return [identity(sig)]
    if kind == "depth":
        d = spec["depth"]
        out = _product_sigmas(sig, [terms_upto(sig, n, d) for _, n in sig.ops])
        if len(out) != depth_slice_count(sig, d):
            raise OracleError("depth slice enumeration disagrees with its closed form")
        return out
    if kind == "fundamental":
        return _product_sigmas(
            sig,
            [
                [(g,) + tup for g, gn in sig.ops if gn == n
                 for tup in itertools.product(range(n), repeat=n)]
                for _, n in sig.ops
            ],
        )
    if kind in ("zero_meet", "zero_meet_fundamental"):
        zero, meet = spec["zero"], spec["meet"]
        choices = []
        for op, n in sig.ops:
            if op == zero:
                choices.append([(zero,)])
            elif op == meet:
                choices.append([(meet, 0, 1)])
            elif kind == "zero_meet":
                choices.append([
                    t for t in terms_upto(sig, n, spec["depth"])
                    if not isinstance(t, int) and tvars(t) >= set(range(n))
                ])
            else:
                choices.append([
                    (g,) + perm for g, gn in sig.ops if gn == n
                    for perm in itertools.permutations(range(n))
                ])
        return _product_sigmas(sig, choices)
    members = [hypersubs[name][1] for name in spec["members"]]
    if kind == "explicit":
        elems = {sigma_key(sig, s): s for s in members}
    elif kind == "generated":
        ident = identity(sig)
        elems = {sigma_key(sig, ident): ident}
        for g in members:
            elems[sigma_key(sig, g)] = g
        frontier = [ident, *members]
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(elems.values()):
                    for c in (compose(sig, a, b), compose(sig, b, a)):
                        k = sigma_key(sig, c)
                        if k not in elems:
                            elems[k] = c
                            nxt.append(c)
                            if len(elems) > spec["cap"]:
                                raise OracleError("generated closure exceeds its cap")
            frontier = nxt
    else:
        raise OracleError(f"unknown monoid kind {kind!r}")
    return [elems[k] for k in sorted(elems)]


# -- hyper satisfaction, solidity, hyperclosure ----------------------------


class Bridge:
    """Per-algebra memo of image term functions and of verdicts per derived
    algebra, so thousands of sigma cost a handful of evaluations."""

    def __init__(self, alg: Alg):
        self.alg = alg
        self.images: dict = {}
        self.verdicts: dict = {}

    def derived(self, sigma: dict) -> tuple:
        return derived_tables(self.alg, sigma, self.images)

    def failure(self, dtabs: tuple, q, tag):
        k = (dtabs, tag)
        if k not in self.verdicts:
            self.verdicts[k] = first_failure(
                tables_dict(self.alg.sig, dtabs), self.alg.size, q
            )
        return self.verdicts[k]


def hyper_witness(alg: Alg, items, sigmas, stats=None):
    """First failure item-major, then sigma in canonical order, then the
    assignment in lexicographic order over the variables of sigma(item).
    Returns None when every image of every item holds, else a dict with the
    item, the sigma index, sigma, the assignment, the lhs/rhs values and the
    failed equation sigma(conclusion)."""
    bridge = Bridge(alg)
    visited = 0
    distinct: set = set()
    try:
        for i, q in enumerate(items):
            for s_idx, sigma in enumerate(sigmas):
                dtabs = bridge.derived(sigma)
                visited += 1
                distinct.add(dtabs)
                hit = bridge.failure(dtabs, q, i)
                if hit is None:
                    continue
                env, lhs, rhs = hit
                image = map_quasi(q, lambda t: apply_sigma(sigma, t))
                keep = qvars(image)
                return {
                    "item": i,
                    "sigma_index": s_idx,
                    "sigma": sigma,
                    "assignment": {v: e for v, e in env.items() if v in keep},
                    "lhs": lhs,
                    "rhs": rhs,
                    "failed": image[1],
                }
        return None
    finally:
        if stats is not None:
            stats["sigmas_visited"] = stats.get("sigmas_visited", 0) + visited
            stats["distinct_derived"] = stats.get("distinct_derived", 0) + len(distinct)


def replay(alg: Alg, q, assignment: dict) -> bool:
    """Does the assignment meet every premise of q and break its conclusion?"""
    vs = sorted(assignment)
    terms = [t for eq in (*q[0], q[1]) for t in eq]
    if not qvars(q) <= set(vs):
        return False
    envs, vecs = vectors(alg.tables, alg.size, terms, vs)
    i = envs.index(tuple(assignment[v] for v in vs))
    npre = len(q[0])
    ok_pre = all(vecs[2 * k][i] == vecs[2 * k + 1][i] for k in range(npre))
    return ok_pre and vecs[2 * npre][i] != vecs[2 * npre + 1][i]


def solidity_failures(bases, witnesses, sigmas, stats=None) -> list:
    """Every (witness, sigma) whose derived algebra breaks the bases, in
    witness order then canonical sigma order, with the first failing item
    and its first assignment."""
    out = []
    for w in witnesses:
        if not models(w, bases):
            raise OracleError(f"witness {w.name} does not model the bases")
        bridge = Bridge(w)
        distinct: set = set()
        for s_idx, sigma in enumerate(sigmas):
            dtabs = bridge.derived(sigma)
            distinct.add(dtabs)
            for i, q in enumerate(bases):
                hit = bridge.failure(dtabs, q, i)
                if hit is not None:
                    env, lhs, rhs = hit
                    out.append({"witness": w.name, "sigma_index": s_idx,
                                "item": i, "assignment": env, "lhs": lhs, "rhs": rhs})
                    break
        if stats is not None:
            stats["sigmas_visited"] = stats.get("sigmas_visited", 0) + len(sigmas)
            stats["distinct_derived"] = stats.get("distinct_derived", 0) + len(distinct)
    return out


def hyperclose(items, sigmas) -> list:
    seen: set = set()
    out = []
    for q in items:
        for sigma in sigmas:
            image = map_quasi(q, lambda t: apply_sigma(sigma, t))
            if qkey(image) not in seen:
                seen.add(qkey(image))
                out.append(image)
    return out


# -- proofs ----------------------------------------------------------------


def produce(j, stated, theory_items, sig: Sig, admits):
    """The statement a justification proves from the earlier lines."""
    kind = j[0]

    def ref(k):
        if not 0 <= k < len(stated):
            raise OracleError(f"reference to line {k + 1} is not an earlier line")
        return stated[k]

    if kind == "hyp":
        if not 0 <= j[1] < len(theory_items):
            raise OracleError("hypothesis index out of range")
        return theory_items[j[1]]
    if kind == "E1":
        return make_quasi([(j[1], j[1])], (j[1], j[1]))
    if kind == "E2":
        return make_quasi([(j[1], j[2])], (j[2], j[1]))
    if kind == "E3":
        return make_quasi([(j[1], j[2]), (j[2], j[3])], (j[1], j[3]))
    if kind == "E4":
        op, lhs, rhs = j[1], j[2], j[3]
        if sig.arity.get(op) != len(lhs) or len(lhs) != len(rhs):
            raise OracleError("compatibility arity mismatch")
        return make_quasi(list(zip(lhs, rhs)), ((op,) + lhs, (op,) + rhs))
    if kind == "ge4":
        pattern, lhs, rhs = j[1], j[2], j[3]
        if len(lhs) != len(rhs) or any(v >= len(lhs) for v in tvars(pattern)):
            raise OracleError("bad generalised compatibility")
        return make_quasi(
            list(zip(lhs, rhs)),
            (subst(pattern, dict(enumerate(lhs))), subst(pattern, dict(enumerate(rhs)))),
        )
    if kind == "subst":
        mapping = j[2]
        return map_quasi(ref(j[1]), lambda t: subst(t, mapping))
    if kind in ("cut", "mp"):
        major, minor = (ref(j[1]), ref(j[2])) if kind == "cut" else (ref(j[2]), ref(j[1]))
        if kind == "mp" and minor[0]:
            raise OracleError("modus ponens fact has premises")
        alpha = minor[1]
        if alpha not in major[0]:
            raise OracleError("cut formula is not a premise of the major")
        kept = [p for p in major[0] if p != alpha]
        return make_quasi(list(minor[0]) + kept, major[1])
    if kind == "ext":
        base = ref(j[1])
        return make_quasi([j[2]] + list(base[0]), base[1])
    if kind == "hypsub":
        if not admits(j[2]):
            raise OracleError("hypersubstitution outside the calculus")
        return map_quasi(ref(j[1]), lambda t: apply_sigma(j[2], t))
    raise OracleError(f"unknown justification {kind!r}")


def first_bad_line(lines, theory_items, sig: Sig, admits):
    """Index of the first line whose statement differs (as a premise set)
    from what its justification produces, or None for a valid proof."""
    stated = [q for q, _ in lines]
    for i, (q, j) in enumerate(lines):
        try:
            got = produce(j, stated[:i], theory_items, sig, admits)
        except OracleError:
            return i
        if qkey(got) != qkey(q):
            return i
    return None


# -- the .hql reader -------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<comment>#[^\n]*)|(?P<arrow>->)|(?P<implies>=>)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<number>\d+)|(?P<punct>[{}()\[\],;:/=])"
)
_VAR = re.compile(r"x(\d+)$")


def _tokens(text: str) -> list:
    toks, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise OracleError(f"unreadable character {text[pos]!r}")
        if m.lastgroup not in ("ws", "comment"):
            toks.append(m.group())
        pos = m.end()
    return toks


class _Scope:
    def __init__(self):
        self.alias: dict = {}
        self.used: set = set()

    def name(self, text: str) -> int:
        m = _VAR.match(text)
        if m:
            self.used.add(int(m.group(1)))
            return int(m.group(1))
        if text not in self.alias:
            i = 0
            while i in self.used:
                i += 1
            self.alias[text] = i
            self.used.add(i)
        return self.alias[text]


class Corpus:
    """Every named object of one or more `.hql` texts, loaded in order."""

    def __init__(self):
        self.sigs: dict = {}
        self.algebras: dict = {}
        self.hypersubs: dict = {}
        self.monoids: dict = {}
        self.theories: dict = {}
        self.quasis: dict = {}
        self.proofs: dict = {}
        self._elements: dict = {}

    def load(self, text: str) -> "Corpus":
        _Reader(self, _tokens(text)).run()
        return self

    def elements(self, name: str) -> list:
        if name not in self._elements:
            sig, spec = self.monoids[name]
            self._elements[name] = monoid_elements(spec, sig, self.hypersubs)
        return self._elements[name]

    def admits(self, logic):
        kind, monoid = logic
        if kind == "Q":
            return lambda s: False
        if kind == "HQ":
            return lambda s: True
        sig = self.monoids[monoid][0]
        keys = {sigma_key(sig, s) for s in self.elements(monoid)}
        return lambda s: sigma_key(sig, s) in keys


class _Reader:
    def __init__(self, corpus: Corpus, toks):
        self.c = corpus
        self.toks = toks
        self.pos = 0

    def peek(self, k=0):
        i = self.pos + k
        return self.toks[i] if i < len(self.toks) else ""

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok != text:
            raise OracleError(f"expected {text!r}, found {tok!r}")

    def skip(self, text):
        if self.peek() == text:
            self.pos += 1
            return True
        return False

    BLOCKS = ("signature", "hypersub", "monoid", "algebra", "theory", "quasi", "proof")

    def run(self):
        while self.pos < len(self.toks):
            word = self.next()
            if word not in self.BLOCKS:
                raise OracleError(f"expected a definition keyword, found {word!r}")
            getattr(self, "_" + word)()

    def _named(self):
        name = self.next()
        self.expect("over")
        return name, self.c.sigs[self.next()]

    def term(self, sig, scope):
        tok = self.next()
        if tok in sig.arity:
            n = sig.arity[tok]
            if n == 0:
                if self.skip("("):
                    self.expect(")")
                return (tok,)
            self.expect("(")
            args = [self.term(sig, scope)]
            while self.skip(","):
                args.append(self.term(sig, scope))
            self.expect(")")
            return (tok,) + tuple(args)
        return scope.name(tok)

    def equation(self, sig, scope):
        lhs = self.term(sig, scope)
        self.expect("=")
        return (lhs, self.term(sig, scope))

    def quasi(self, sig, scope):
        if self.skip("=>"):
            return make_quasi([], self.equation(sig, scope))
        eqs = [self.equation(sig, scope)]
        while self.skip(","):
            eqs.append(self.equation(sig, scope))
        if self.skip("=>"):
            return make_quasi(eqs, self.equation(sig, scope))
        return make_quasi([], eqs[0])

    def _signature(self):
        name = self.next()
        self.expect("{")
        ops = []
        while not self.skip("}"):
            op = self.next()
            self.expect("/")
            ops.append((op, int(self.next())))
            self.skip(";")
        self.c.sigs[name] = Sig(name, ops)

    def _hypersub(self):
        name, sig = self._named()
        self.expect("{")
        images = {}
        while not self.skip("}"):
            op = self.next()
            scope = _Scope()
            if self.skip("("):
                k = 0
                while not self.skip(")"):
                    scope.alias[self.next()] = k
                    scope.used.add(k)
                    k += 1
                    self.skip(",")
            self.expect("->")
            images[op] = self.term(sig, scope)
            self.skip(";")
        self.c.hypersubs[name] = (sig, images)

    def _monoid(self):
        name, sig = self._named()
        self.expect("{")
        spec: dict = {"cap": 64}
        while not self.skip("}"):
            word = self.next()
            if word in ("elements", "generators"):
                spec["kind"] = "explicit" if word == "elements" else "generated"
                spec["members"] = []
                while self.peek() not in (";", "}"):
                    spec["members"].append(self.next())
                    self.skip(",")
            elif word == "cap":
                spec["cap"] = int(self.next())
            elif word == "preset":
                kind = self.next()
                args = []
                if self.skip("("):
                    while not self.skip(")"):
                        args.append(self.next())
                        self.skip(",")
                if kind == "MF":
                    kind = "fundamental"
                spec["kind"] = kind
                if kind == "depth":
                    spec["depth"] = int(args[0])
                elif kind == "zero_meet":
                    spec.update(depth=int(args[0]), zero=args[1], meet=args[2])
                elif kind == "zero_meet_fundamental":
                    spec.update(zero=args[0], meet=args[1])
            self.skip(";")
        self.c.monoids[name] = (sig, spec)

    def _table(self):
        if self.skip("["):
            out = []
            while not self.skip("]"):
                out.append(self._table())
                self.skip(",")
            return out
        return self.next()

    def _algebra(self):
        name, sig = self._named()
        self.expect("{")
        self.expect("elements")
        labels = []
        while not self.skip(";"):
            labels.append(self.next())
            self.skip(",")
        index = {lab: i for i, lab in enumerate(labels)}
        tables = {}

        def flat(v):
            return [index[v]] if not isinstance(v, list) else [x for c in v for x in flat(c)]

        while not self.skip("}"):
            op = self.next()
            self.expect("=")
            tables[op] = flat(self._table())
            self.skip(";")
        self.c.algebras[name] = Alg(name, sig, labels, tables)

    def _theory(self):
        name, sig = self._named()
        self.expect("{")
        items = []
        while not self.skip("}"):
            items.append(self.quasi(sig, _Scope()))
            self.skip(";")
        self.c.theories[name] = (sig, items)

    def _quasi(self):
        name, sig = self._named()
        self.expect("{")
        q = self.quasi(sig, _Scope())
        self.skip(";")
        self.expect("}")
        self.c.quasis[name] = (sig, q)

    def _proof(self):
        name = self.next()
        self.expect("over")
        sig = self.c.sigs[self.next()]
        self.expect("in")
        logic = self.next()
        monoid = None
        if logic == "MHQ":
            self.expect("(")
            monoid = self.next()
            self.expect(")")
        self.expect("from")
        theory = self.next()
        lines = []
        while self.peek().isdigit() and self.peek(1) == ":":
            self.next()
            self.next()
            scope = _Scope()
            q = self.quasi(sig, scope)
            self.expect("by")
            lines.append((q, self.justification(sig, scope)))
        self.c.proofs[name] = {"sig": sig, "logic": (logic, monoid),
                               "theory": theory, "lines": lines}

    def _terms(self, sig, scope):
        out = []
        while self.peek() not in (";", ")"):
            out.append(self.term(sig, scope))
            self.skip(",")
        return tuple(out)

    def justification(self, sig, scope):
        word = self.next()
        if word == "hyp":
            return ("hyp", int(self.next()))
        if word in ("E1", "E2", "E3"):
            self.expect("(")
            ts = [self.term(sig, scope)]
            while self.skip(","):
                ts.append(self.term(sig, scope))
            self.expect(")")
            return (word, *ts)
        if word in ("E4", "ge4"):
            self.expect("(")
            head = self.next() if word == "E4" else self.term(sig, scope)
            self.expect(";")
            lhs = self._terms(sig, scope)
            self.expect(";")
            rhs = self._terms(sig, scope)
            self.expect(")")
            return (word, head, lhs, rhs)
        if word == "subst":
            line = int(self.next()) - 1
            self.expect("{")
            mapping = {}
            while not self.skip("}"):
                var = int(_VAR.match(self.next()).group(1))
                self.expect("->")
                mapping[var] = self.term(sig, scope)
                self.skip(",")
            return ("subst", line, mapping)
        if word in ("cut", "mp"):
            return (word, int(self.next()) - 1, int(self.next()) - 1)
        if word == "ext":
            return ("ext", int(self.next()) - 1, self.equation(sig, scope))
        if word == "hypsub":
            line = int(self.next()) - 1
            return ("hypsub", line, self.c.hypersubs[self.next()][1])
        raise OracleError(f"unknown justification {word!r}")


def parse_term(text: str, sig: Sig):
    """Read one term in the canonical rendering (explicit x<i> variables)."""
    r = _Reader(Corpus(), _tokens(text))
    t = r.term(sig, _Scope())
    if r.pos != len(r.toks):
        raise OracleError(f"trailing input in term {text!r}")
    return t


def parse_quasi(text: str, sig: Sig):
    r = _Reader(Corpus(), _tokens(text))
    q = r.quasi(sig, _Scope())
    if r.pos != len(r.toks):
        raise OracleError(f"trailing input in {text!r}")
    return q
