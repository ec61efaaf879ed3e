"""Seeded workload inputs and the checks of the program's answers.

Each generator turns a seed into `.hql` text plus a list of questions.  A
question is one thing a user asks: one hyper check of a theory, one
solidity check, one batch of derived algebras, one saturation, one proof
check, one normalisation, one hyperclosure, or one CLI invocation.  The
oracle chooses inputs by their verdict class (holds, fails late, fails
early) so that every seed gives the same mix, and it checks every answer.
"""

from __future__ import annotations

import itertools
import json
import random

import oracle as O

FIXTURES = ("quasigroup.hql", "lattice.hql", "boolean.hql", "flat.hql", "proofs.hql")
_LABELS = "abcdefghjkmnpqrstuvw"


def fixture_texts(root: str) -> list:
    out = []
    for name in FIXTURES:
        with open(f"{root}/src/hql/fixtures/{name}", encoding="utf-8") as handle:
            out.append((name, handle.read()))
    return out


# -- text rendering --------------------------------------------------------


def _nest(flat, arity, labels):
    if arity == 0:
        return labels[flat[0]]
    stride = len(flat) // len(labels)
    return "[" + ", ".join(
        _nest(flat[i * stride:(i + 1) * stride], arity - 1, labels)
        for i in range(len(labels))
    ) + "]"


def _just_text(j, names: dict) -> str:
    kind = j[0]
    if kind == "hyp":
        return f"hyp {j[1]}"
    if kind in ("E1", "E2", "E3"):
        return f"{kind}({', '.join(O.fmt(t) for t in j[1:])})"
    if kind in ("E4", "ge4"):
        head = j[1] if kind == "E4" else O.fmt(j[1])
        lhs = ", ".join(O.fmt(t) for t in j[2])
        rhs = ", ".join(O.fmt(t) for t in j[3])
        return f"{kind}({head}; {lhs}; {rhs})"
    if kind == "subst":
        pairs = ", ".join(f"x{v} -> {O.fmt(t)}" for v, t in sorted(j[2].items()))
        return f"subst {j[1] + 1} {{{pairs}}}"
    if kind in ("cut", "mp"):
        return f"{kind} {j[1] + 1} {j[2] + 1}"
    if kind == "ext":
        return f"ext {j[1] + 1} {O.fmt_eq(j[2])}"
    if kind == "hypsub":
        return f"hypsub {j[1] + 1} {names[j[3]]}"
    raise ValueError(kind)


class Gen:
    """Seeded builder of one generated `.hql` file, mirrored in an oracle
    corpus that reads the same text back."""

    def __init__(self, rng: random.Random, fixtures):
        self.rng = rng
        self.fixtures = fixtures
        self.corpus = O.Corpus()
        for _, text in fixtures:
            self.corpus.load(text)
        self.chunks: list = []
        self.n = 0

    def fresh(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}{self.n}"

    def emit(self, text: str) -> None:
        self.chunks.append(text)
        self.corpus.load(text)

    def text(self) -> str:
        return "\n\n".join(self.chunks) + "\n"

    def sig(self, name):
        return self.corpus.sigs[name]

    def monoid(self, name: str, sig: str, clause: str) -> str:
        self.emit(f"monoid {name} over {sig} {{ {clause} }}")
        return name

    def algebra(self, prefix: str, sig: str, tables: dict, size: int) -> str:
        name = self.fresh(prefix)
        labels = self.rng.sample(_LABELS, size)
        s = self.sig(sig)
        body = [f"  elements {' '.join(labels)};"]
        body += [f"  {op} = {_nest(tables[op], n, labels)};" for op, n in s.ops]
        self.emit(f"algebra {name} over {sig} {{\n" + "\n".join(body) + "\n}")
        return name

    def random_algebra(self, prefix: str, sig: str, size: int) -> str:
        s = self.sig(sig)
        tables = {op: [self.rng.randrange(size) for _ in range(size**n)] for op, n in s.ops}
        return self.algebra(prefix, sig, tables, size)

    def theory(self, prefix: str, sig: str, items) -> str:
        name = self.fresh(prefix)
        body = "\n".join(f"  {O.fmt_quasi(q)};" for q in items)
        self.emit(f"theory {name} over {sig} {{\n{body}\n}}")
        return name

    def quasi(self, prefix: str, sig: str, q) -> str:
        name = self.fresh(prefix)
        self.emit(f"quasi {name} over {sig} {{ {O.fmt_quasi(q)} }}")
        return name

    def proof(self, name: str, sig: str, monoid: str, theory: str, lines, names) -> str:
        head = f"proof {name} over {sig} in MHQ({monoid}) from {theory}"
        body = [f"{i + 1}: {O.fmt_quasi(q)} by {_just_text(j, names)}"
                for i, (q, j) in enumerate(lines)]
        self.emit("\n".join([head] + body))
        return name


# -- random terms ----------------------------------------------------------


def rterm(rng, sig, nvars: int, d: int, leaf: float = 0.3):
    ops = [(o, n) for o, n in sig.ops if n >= 1]
    if d == 0 or rng.random() < leaf:
        consts = [o for o, n in sig.ops if n == 0]
        if consts and rng.random() < 0.2:
            return (rng.choice(consts),)
        return rng.randrange(nvars)
    op, n = rng.choice(ops)
    return (op,) + tuple(rterm(rng, sig, nvars, d - 1, leaf) for _ in range(n))


def full_term(rng, sig, d: int, leaves):
    """A complete binary tree of depth d with random binary symbols."""
    if d == 0:
        return rng.choice(leaves)
    op = rng.choice([o for o, n in sig.ops if n == 2])
    return (op, full_term(rng, sig, d - 1, leaves), full_term(rng, sig, d - 1, leaves))


def compat_quasi(rng, sig, d: int):
    """x0 = x1 => t[x0] = t[x1]: holds in every algebra under every sigma,
    so checking it is a full sweep."""
    t = full_term(rng, sig, d, [0, 0, 2, 3])
    return O.make_quasi([(0, 1)], (t, O.subst(t, {0: 1})))


def compat3(rng):
    """x0 = x1 => t[x0] = t[x1] for t of one fixed shape: a depth-2 product
    of x0, x2, x3 in some order and nesting."""
    a, b, c = rng.sample([0, 2, 3], 3)
    t = ("mul", ("mul", a, b), c) if rng.random() < 0.5 else ("mul", a, ("mul", b, c))
    return O.make_quasi([(0, 1)], (t, O.subst(t, {0: 1})))


def compat4(rng):
    """x0 = x1 => t[x0] = t[x1] for t = (a b)(c d): x0 at one leaf, x2 and
    x3 at the others (one of them twice), so always four variables."""
    leaves = [0, 2, 3, rng.choice([2, 3])]
    rng.shuffle(leaves)
    t = ("mul", ("mul", *leaves[:2]), ("mul", *leaves[2:]))
    return O.make_quasi([(0, 1)], (t, O.subst(t, {0: 1})))


def random_item(rng, sig, nvars=3, d=2):
    if rng.random() < 0.5:
        return O.make_quasi([], (rterm(rng, sig, nvars, d), rterm(rng, sig, nvars, d)))
    return O.make_quasi(
        [(rterm(rng, sig, nvars, 1), rterm(rng, sig, nvars, 1))],
        (rterm(rng, sig, nvars, d), rterm(rng, sig, nvars, d)),
    )


def first_fail_index(alg, items, sigmas):
    w = O.hyper_witness(alg, items, sigmas)
    return None if w is None else (w["item"], w["sigma_index"])


def pick_item(rng, sig, alg, sigmas, cls: str, late: int, tries=5000):
    """A random item of the wanted verdict class: 'hold', 'late' (first
    failing sigma at index >= late) or 'early' (fails at the first sigma);
    None when none turned up."""
    for _ in range(tries):
        q = random_item(rng, sig)
        hit = first_fail_index(alg, [q], sigmas)
        if cls == "hold" and hit is None:
            if O.qvars(q) and q[1][0] != q[1][1]:
                return q
        elif cls == "late" and hit is not None and hit[1] >= late:
            return q
        elif cls == "early" and hit is not None and hit[1] == 0:
            return q
    if cls == "hold":
        return compat_quasi(rng, sig, 2)
    return None


def pick_on_random(g: Gen, sig: str, size: int, monoid: str, classes, late: int):
    """A seeded algebra of the given size with one item of each wanted class
    under the monoid; algebras without such items are skipped."""
    sigmas = g.corpus.elements(monoid)
    for _ in range(200):
        s = g.sig(sig)
        tables = {op: [g.rng.randrange(size) for _ in range(size**n)] for op, n in s.ops}
        alg = O.Alg("a", s, range(size), tables)
        items = [pick_item(g.rng, s, alg, sigmas, cls, late, tries=300) for cls in classes]
        if all(q is not None for q in items):
            return g.algebra("g", sig, tables, size), items
    raise O.OracleError(f"no {sig} algebra of size {size} with items {classes}")


# -- workloads -------------------------------------------------------------


class Workload:
    def __init__(self, name, gen: Gen, questions, monoids):
        self.name = name
        self.corpus = gen.corpus
        self.files = [*gen.fixtures, (f"{name}_gen.hql", gen.text())]
        self.questions = questions
        self.monoids = monoids
        self.models: dict = {}


def hyper(rng, fixtures) -> Workload:
    g = Gen(rng, fixtures)
    g.monoid("lat_d2", "LAT", "preset depth(2);")
    g.monoid("grp_d3", "GRP", "preset depth(3);")
    g.monoid("grp_d2", "GRP", "preset depth(2);")
    qs = []

    def ask(alg, monoid, items, sig):
        qs.append({"kind": "hyper", "algebra": alg, "monoid": monoid,
                   "theory": g.theory("h", sig, items)})

    # Large slices, one fixed shape each, so that every seed costs the same.
    # Every one-variable lattice term is x on l2, so op(x0, x0) = x0 holds
    # under all 40,804 sigma of depth(2).
    q = O.make_quasi([], ((rng.choice(["meet", "join"]), 0, 0), 0))
    ask("l2", "lat_d2", [q if rng.random() < 0.5 else (q[0], q[1][::-1])], "LAT")
    t = ("mul", 0, 2) if rng.random() < 0.5 else ("mul", 2, 0)
    ask("z3sub", "grp_d3", [O.make_quasi([(0, 1)], (t, O.subst(t, {0: 1})))], "GRP")

    # The bulk: full sweeps of depth(2) over seeded size-3 groupoids, 18 of
    # one shape and 9 of a larger one.  With the 11 cheaper questions below
    # and the 9 + 2 heavier ones above, the median question sits mid-bulk.
    for _ in range(9):
        alg = g.random_algebra("g", "GRP", 3)
        for make in (compat3, compat3, compat4):
            ask(alg, "grp_d2", [make(rng)], "GRP")

    # Small monoids on fixture and seeded algebras, a fixed mix of classes;
    # the first late failure sits on the second item of its theory.
    alg, (late1, late2, early) = pick_on_random(g, "GRP", 3, "grp_d2", ["late", "late", "early"], 2)
    ask(alg, "grp_d2", [compat3(rng), late1], "GRP")
    ask(alg, "grp_d2", [late2], "GRP")
    ask(alg, "grp_d2", [early], "GRP")
    alg, items = pick_on_random(g, "GRP", 2, "grp_proj", ["late", "early"], 1)
    for q in items:
        ask(alg, "grp_proj", [q], "GRP")
    plan = [
        ("l2", "lat_four", 1, ["hold", "late"]),
        ("chain3", "lat_four", 1, ["late"]),
        ("l2", "lat_fund", 8, ["late", "early"]),
        ("b2", "bool_fund", 1, ["hold"]),
    ]
    for alg, monoid, late, classes in plan:
        a = g.corpus.algebras[alg]
        for cls in classes:
            q = pick_item(rng, a.sig, a, g.corpus.elements(monoid), cls, late)
            if q is None:
                raise O.OracleError(f"no {cls} item on {alg}")
            ask(alg, monoid, [q], a.sig.name)
    rng.shuffle(qs)
    return Workload("hyper", g, qs, ["lat_d2", "grp_d3", "grp_d2", "grp_proj",
                                     "grp_pos", "lat_four", "lat_fund", "bool_fund"])


def _flat_models(g: Gen, size: int) -> list:
    """Tables of every FLAT algebra of the given size modelling flat_base
    with element 0 as zero."""
    FLAT = g.sig("FLAT")
    base = g.corpus.theories["flat_base"][1]
    free = [(a, b) for a in range(1, size) for b in range(a + 1, size)]
    out = []
    for meets in itertools.product(*[(0, a, b) for a, b in free]):
        meet = [0] * size * size
        for x in range(size):
            meet[x * size + x] = x
        for (a, b), m in zip(free, meets):
            meet[a * size + b] = meet[b * size + a] = m
        cells = [(a, b) for a in range(1, size) for b in range(1, size)]
        for fs in itertools.product(range(size), repeat=len(cells)):
            f = [0] * size * size
            for (a, b), v in zip(cells, fs):
                f[a * size + b] = v
            tables = {"meet": meet, "zero": [0], "f": f}
            if O.models(O.Alg("m", FLAT, range(size), tables), base):
                out.append(tables)
    return out


def solidity(rng, fixtures) -> Workload:
    g = Gen(rng, fixtures)
    GRP = g.sig("GRP")
    g.monoid("grp_d1", "GRP", "preset depth(1);")
    g.monoid("grp_d2", "GRP", "preset depth(2);")
    qs = []

    flat3 = [g.algebra("fm", "FLAT", t, 3) for t in rng.sample(_flat_models(g, 3), 4)]
    flat2 = [g.algebra("fm", "FLAT", t, 2) for t in _flat_models(g, 2)]
    qs.append({"kind": "solid", "theory": "flat_base", "monoid": "flat_zm",
               "witnesses": ["f3", *flat3]})
    qs.append({"kind": "solid", "theory": "flat_base", "monoid": "flat_zmf",
               "witnesses": rng.sample(["f3", "chain3f", *flat3, *flat2], 5)})

    # Idempotent commutative groupoids: every model of size 2 and 3.
    idem = O.make_quasi([], (("mul", 0, 0), 0))
    comm = O.make_quasi([], (("mul", 0, 1), ("mul", 1, 0)))
    items = [idem if rng.random() < 0.5 else (idem[0], idem[1][::-1]), comm]
    rng.shuffle(items)
    ci = g.theory("ci", "GRP", items)
    models = []
    for size in (2, 3):
        cells = [(a, b) for a in range(size) for b in range(size) if a != b]
        for vals in itertools.product(range(size), repeat=len(cells)):
            mul = [0] * size * size
            for x in range(size):
                mul[x * size + x] = x
            for (a, b), v in zip(cells, vals):
                mul[a * size + b] = v
            if O.models(O.Alg("m", GRP, range(size), {"mul": mul}), items):
                models.append((size, mul))
    rng.shuffle(models)
    wits = [g.algebra("ci", "GRP", {"mul": mul}, size) for size, mul in models]
    for monoid in ("grp_d2", "grp_d1", "grp_pos", "grp_proj"):
        qs.append({"kind": "solid", "theory": ci, "monoid": monoid, "witnesses": wits})

    for _ in range(14):
        qs.append({"kind": "derive", "monoid": "grp_d2",
                   "algebra": g.random_algebra("d", "GRP", 3)})
    rng.shuffle(qs)
    return Workload("solidity", g, qs, ["flat_zm", "flat_zmf", "grp_d2", "grp_d1",
                                        "grp_pos", "grp_proj"])


def _proof_lines(rng, g: Gen, theory: str, monoid: str, names: dict, chars: int):
    """A valid MHQ derivation built with the oracle's own rule engine.  Its
    conclusion rests on one long spine of substitution, hypersubstitution,
    extension and cut steps, so hypersubstitution steps sit deep inside the
    proof, with unused axiom lines on the side.  It grows until its stated
    lines reach `chars` characters, so that every seed's proofs cost about
    the same to check."""
    sig = g.corpus.theories[theory][0]
    items = g.corpus.theories[theory][1]
    sigmas = [g.corpus.hypersubs[n][1] for n in names.values()]
    admits = g.corpus.admits(("MHQ", monoid))
    name_of = {O.sigma_key(sig, s): n for n, s in zip(names.values(), sigmas)}
    lines = []
    size = [0]

    def add(j):
        q = O.produce(j, [l[0] for l in lines], items, sig, admits)
        if any(O.depth(t) > 3 for eq in (*q[0], q[1]) for t in eq) or len(q[0]) > 3:
            return None
        lines.append((q, j))
        size[0] += len(O.fmt_quasi(q))
        return len(lines) - 1

    def hypsub(line):
        s = rng.choice(sigmas)
        return add(("hypsub", line, s, name_of[O.sigma_key(sig, s)]))

    for k in range(len(items)):
        add(("hyp", k))
    spine = rng.randrange(len(items))
    while size[0] < chars:
        kind = rng.randrange(6)
        prem, _ = lines[spine][0]
        if kind == 0:
            vs = sorted(O.qvars(lines[spine][0]))
            new = add(("subst", spine, {v: rng.choice([rng.choice(vs), rterm(rng, sig, 4, 1)])
                                        for v in vs if rng.random() < 0.5}))
        elif kind in (1, 2):
            new = hypsub(spine)
        elif kind == 3 and prem:
            a, b = rng.choice(prem)
            minor = add(("E2", b, a))
            new = None if minor is None else add(("cut", spine, minor))
        elif kind == 4:
            new = add(("ext", spine, (rterm(rng, sig, 4, 1), rterm(rng, sig, 4, 1))))
        else:
            side = add(("E4", "mul", tuple(rterm(rng, sig, 3, 1) for _ in range(2)),
                        tuple(rterm(rng, sig, 3, 1) for _ in range(2))))
            if side is not None:
                hypsub(side)
            new = None
        if new is not None:
            spine = new
    hypsub(spine)
    return lines


def _alter(lines, rng):
    """Copy with one stated conclusion reversed near the end, so checking it
    costs about as much as checking the whole proof; returns (lines, index)."""
    cands = [i for i, (q, _) in enumerate(lines) if q[1][0] != q[1][1] and i > 0]
    k = rng.choice(cands[-max(1, len(cands) // 10):])
    q, j = lines[k]
    out = list(lines)
    out[k] = ((q[0], q[1][::-1]), j)
    return out, k


def proofs(rng, fixtures) -> Workload:
    g = Gen(rng, fixtures)
    GRP = g.sig("GRP")
    g.monoid("grp_d2", "GRP", "preset depth(2);")
    g.monoid("grp_d3", "GRP", "preset depth(3);")
    qs = []
    models = {"cancellation_demo": "z3sub"}

    # Seeded theories of one fixed shape each, with a seeded model: a Latin
    # square is cancellative on both sides (so under grp_pos too), and an
    # idempotent groupoid models x x = x under the projections as well.  The
    # variables stay inside x0, x1, x2 of the fixture laws, since saturation
    # cost depends on them.
    items = [O.make_quasi([(("mul", 0, 2), ("mul", 1, 2))], (0, 1)),
             O.make_quasi([(("mul", 2, 0), ("mul", 2, 1))], (0, 1))]
    rng.shuffle(items)
    t_pos = g.theory("st", "GRP", items)
    perm, step = rng.sample(range(3), 3), rng.choice((1, 2))
    models[t_pos] = g.algebra("lq", "GRP", {"mul": [perm[(a + step * b) % 3]
                                                    for a in range(3) for b in range(3)]}, 3)
    v = rng.randrange(2)
    idem = (("mul", v, v), v)
    t_proj = g.theory("st", "GRP", [O.make_quasi([], idem if rng.random() < 0.5 else idem[::-1])])
    models[t_proj] = g.algebra("ig", "GRP", {"mul": [a if a == b else rng.randrange(3)
                                                     for a in range(3) for b in range(3)]}, 3)
    for theory, monoid in ((t_pos, "grp_pos"), (t_proj, "grp_proj")):
        if O.hyper_witness(g.corpus.algebras[models[theory]], g.corpus.theories[theory][1],
                           g.corpus.elements(monoid)) is not None:
            raise O.OracleError("seeded model does not model its theory")
    runs = [
        ("cancellation_demo", "grp_pos", 1, 1, 8, 2000),
        (t_pos, "grp_pos", 1, 1, 8, 2000),
        (t_proj, "grp_proj", 1, 1, 8, 2000),
        ("cancellation_demo", "grp_pos", 1, 2, 2, 2000),
        (t_pos, "grp_pos", 1, 2, 8, 300),
    ]
    for theory, monoid, d, p, it, cap in runs:
        sid = len(qs)
        qs.append({"kind": "saturate", "theory": theory, "monoid": monoid, "depth": d,
                   "premises": p, "iterations": it, "max_items": cap})
        qs.append({"kind": "check_saturated", "of": sid})
        qs.append({"kind": "check_saturated", "of": sid, "alter": rng.randrange(1 << 30)})

    # Altered copies outnumber normalisations, so the median question is an
    # altered-proof check, a class of near-equal cost on every seed.
    names = {v: v for v in ("grp_id", "grp_swap")}
    for k in range(18):
        lines = _proof_lines(rng, g, t_pos, "grp_pos", names, 9000)
        bad_lines, at = _alter(lines, rng)
        bad = g.proof(f"gp{k}_bad", "GRP", "grp_pos", t_pos, bad_lines, names)
        qs.append({"kind": "check_proof", "proof": bad, "bad_line": at})
        if k < 6:
            good = g.proof(f"gp{k}", "GRP", "grp_pos", t_pos, lines, names)
            qs.append({"kind": "normalize", "proof": good})

    t3 = g.theory("hc", "GRP", [random_item(rng, GRP, 3, 2) for _ in range(3)])
    for theory, monoid in ((t_pos, "grp_d3"), (t3, "grp_d2"), (t_proj, "grp_proj"),
                           ("cancellation", "grp_d2")):
        qs.append({"kind": "hyperclose", "theory": theory, "monoid": monoid})
    wl = Workload("proofs", g, qs, ["grp_pos", "grp_proj", "grp_d2", "grp_d3"])
    wl.models = models
    return wl


README_COMMANDS = [
    ["check", "$FIX", "--algebra", "z3sub", "--quasi", "right_cancellation"],
    ["hypercheck", "$FIX", "--algebra", "z3sub", "--theory", "cancellation", "--monoid", "grp_proj"],
    ["derive", "$FIX", "--algebra", "l2", "--sigma", "lat_dual", "--out", "dual.hql"],
    ["verify-proof", "$FIX", "--proof", "swap_after_subst"],
    ["normalize-proof", "$FIX", "--proof", "swap_after_subst", "--out", "normal.hql"],
    ["hyperclose", "$FIX", "--theory", "cancellation_demo", "--monoid", "grp_pos", "--out", "closed.hql"],
    ["saturate", "$FIX", "--theory", "cancellation_demo", "--monoid", "grp_pos",
     "--term-depth", "1", "--premises", "1", "--iterations", "8"],
    ["solid-check", "$FIX", "--theory", "flat_base", "--witnesses", "f3", "--monoid", "flat_zm"],
    ["monoid", "list", "$FIX", "--monoid", "grp_proj"],
]


def cli(rng, fixtures) -> Workload:
    g = Gen(rng, fixtures)
    GRP, LAT = g.sig("GRP"), g.sig("LAT")
    g.monoid("grp_d1", "GRP", "preset depth(1);")
    qs = [{"kind": "cli", "argv": list(argv)} for argv in README_COMMANDS]
    for size, cls in ((3, "hold"), (3, "early"), (2, "late")):
        alg, (q,) = pick_on_random(g, "GRP", size, "grp_pos", [cls], 1)
        name = g.quasi("cq", "GRP", q)
        qs.append({"kind": "cli", "argv": ["hypercheck", "$FIX", "$GEN", "--algebra", alg,
                                           "--quasi", name, "--monoid", "grp_pos", "--json"]})
    for alg, cls in (("l2", "hold"), ("chain3", "early")):
        a = g.corpus.algebras[alg]
        q = pick_item(rng, LAT, a, [O.identity(LAT)], cls, 1)
        if q is None:
            raise O.OracleError(f"no {cls} item on {alg}")
        name = g.quasi("cl", "LAT", q)
        qs.append({"kind": "cli", "argv": ["check", "$FIX", "$GEN", "--algebra", alg,
                                           "--quasi", name, "--json"]})
    wits = [g.random_algebra("w", "GRP", 2) for _ in range(2)]
    items = [O.make_quasi([], (("mul", 0, 0), ("mul", 0, 0)))]
    for w in wits:
        a = g.corpus.algebras[w]
        for _ in range(500):
            q = random_item(rng, GRP, 2, 1)
            if not O.qvars(q) - {0, 1} and O.models(a, [q]) and all(
                    O.models(g.corpus.algebras[v], [q]) for v in wits):
                items.append(q)
                break
    th = g.theory("ct", "GRP", items)
    qs.append({"kind": "cli", "argv": ["solid-check", "$FIX", "$GEN", "--theory", th,
                                       "--witnesses", ",".join(wits), "--monoid", "grp_d1", "--json"]})
    lines = _proof_lines(rng, g, "cancellation_demo", "grp_pos",
                         {"id": "grp_id", "swap": "grp_swap"}, 1500)
    bad_lines, at = _alter(lines, rng)
    names = {"grp_id": "grp_id", "grp_swap": "grp_swap"}
    g.proof("cgood", "GRP", "grp_pos", "cancellation_demo", lines, names)
    g.proof("cbad", "GRP", "grp_pos", "cancellation_demo", bad_lines, names)
    qs.append({"kind": "cli", "argv": ["verify-proof", "$FIX", "$GEN", "--proof", "cgood", "--json"]})
    qs.append({"kind": "cli", "argv": ["verify-proof", "$FIX", "$GEN", "--proof", "cbad", "--json"],
               "bad_line": at})
    return Workload("cli", g, qs, [])


GENERATORS = {"hyper": hyper, "solidity": solidity, "proofs": proofs, "cli": cli}


def generate(name: str, seed: int, root: str) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return GENERATORS[name](rng, fixture_texts(root))


# -- checks ----------------------------------------------------------------


def _sigma_strs(sig, sigma) -> list:
    return [O.fmt(sigma[op]) for op, _ in sig.ops]


def _check_hyper(wl, q, out):
    c = wl.corpus
    alg = c.algebras[q["algebra"]]
    items = c.theories[q["theory"]][1]
    sigmas = c.elements(q["monoid"])
    want = O.hyper_witness(alg, items, sigmas)
    if want is None:
        return None if out is None else "refuted a hyperidentity that holds"
    if out is None:
        return "missed a refutation"
    got_sigma = [O.parse_term(s, alg.sig) for s in out["sigma"]]
    image = O.map_quasi(items[out["item"]], lambda t: O.apply_sigma(
        dict(zip((op for op, _ in alg.sig.ops), got_sigma)), t))
    env = {int(v): e for v, e in out["assignment"].items()}
    if not O.replay(alg, image, env):
        return "witness does not replay"
    expect = {"item": want["item"], "sigma": _sigma_strs(alg.sig, want["sigma"]),
              "assignment": {str(v): e for v, e in sorted(want["assignment"].items())},
              "lhs": want["lhs"], "rhs": want["rhs"], "failed": O.fmt_eq(want["failed"])}
    if out != expect:
        return f"witness {out} differs from the first-in-order {expect}"
    return None


def _check_solid(wl, q, out):
    c = wl.corpus
    bases = c.theories[q["theory"]][1]
    wits = [c.algebras[w] for w in q["witnesses"]]
    sigmas = c.elements(q["monoid"])
    sig = wits[0].sig
    want = [
        [f["witness"], _sigma_strs(sig, sigmas[f["sigma_index"]]), f["item"],
         {str(v): e for v, e in sorted(f["assignment"].items())}, f["lhs"], f["rhs"]]
        for f in O.solidity_failures(bases, wits, sigmas)
    ]
    if out != want:
        return f"solidity failures differ ({len(out)} vs {len(want)} expected)"
    return None


def _check_derive(wl, q, out):
    alg = wl.corpus.algebras[q["algebra"]]
    memo: dict = {}
    want = [[list(t) for t in O.derived_tables(alg, s, memo)]
            for s in wl.corpus.elements(q["monoid"])]
    return None if out == want else "derived tables differ"


def _check_saturate(wl, q, out):
    c = wl.corpus
    sig, base = c.theories[q["theory"]]
    model = c.algebras[wl.models[q["theory"]]]
    if O.hyper_witness(model, base, c.elements(q["monoid"])) is not None:
        return "the chosen model does not model the theory"
    items = [O.parse_quasi(s, sig) for s in out["items"]]
    if len(items) > max(q["max_items"], len(base)):
        return "more items than the item cap"
    if [O.qkey(i) for i in items[:len(base)]] != [O.qkey(i) for i in base]:
        return "saturation does not start with the hypotheses"
    for item in items:
        if O.first_failure(model.tables, model.size, item) is not None:
            return f"unsound item {O.fmt_quasi(item)}"
    return None


def _check_saturated_proof(wl, q, out):
    if "alter" not in q:
        return None if out == {"valid": True} else f"produced proof rejected: {out}"
    if out.get("original") == out.get("altered"):
        return "alteration did not change the statement"
    return None if out.get("error_line") == out.get("altered_line") else (
        f"altered proof not rejected at line {out.get('altered_line')}: {out}")


def _check_proof(wl, q, out):
    return None if out == {"error_line": q["bad_line"]} else (
        f"altered proof not rejected at line {q['bad_line']}: {out}")


def _normal_form_problem(text: str, original_conclusion):
    corpus = O.Corpus().load(text)
    (proof,) = corpus.proofs.values()
    lines = proof["lines"]
    if O.qkey(lines[-1][0]) != O.qkey(original_conclusion):
        return "normalisation changed the conclusion"
    for _, j in lines:
        if j[0] == "hypsub" and lines[j[1]][1][0] != "hyp":
            return "hypersubstitution step not on a hypothesis"
    theory = corpus.theories[proof["theory"]][1]
    if O.first_bad_line(lines, theory, proof["sig"], corpus.admits(proof["logic"])) is not None:
        return "normal form does not check"
    return None


def _check_normalize(wl, q, out):
    p = wl.corpus.proofs[q["proof"]]
    return _normal_form_problem(out, p["lines"][-1][0])


def _check_hyperclose(wl, q, out):
    sig, items = wl.corpus.theories[q["theory"]]
    want = [O.fmt_quasi(i) for i in O.hyperclose(items, wl.corpus.elements(q["monoid"]))]
    return None if out == want else "hyperclosure differs from the sigma-images"


def options(argv) -> dict:
    """The `--name value` pairs of a CLI argument list."""
    return {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}


def _cli_expect(wl, q):
    """(exit code, detail) the oracle expects for a CLI invocation."""
    c = wl.corpus
    opt = options(q["argv"])
    cmd = q["argv"][0]
    if cmd in ("check", "hypercheck"):
        alg = c.algebras[opt["algebra"]]
        items = [c.quasis[opt["quasi"]][1]] if "quasi" in opt else c.theories[opt["theory"]][1]
        sigmas = c.elements(opt["monoid"]) if cmd == "hypercheck" else [O.identity(alg.sig)]
        w = O.hyper_witness(alg, items, sigmas)
        return (0 if w is None else 1), w
    if cmd == "solid-check":
        fails = O.solidity_failures(
            c.theories[opt["theory"]][1],
            [c.algebras[n] for n in opt["witnesses"].split(",")], c.elements(opt["monoid"]))
        return (1 if fails else 0), fails
    if cmd in ("verify-proof", "normalize-proof"):
        p = c.proofs[opt["proof"]]
        bad = O.first_bad_line(p["lines"], c.theories[p["theory"]][1], p["sig"],
                               c.admits(p["logic"]))
        if "bad_line" in q and bad != q["bad_line"]:
            raise O.OracleError("oracle disagrees with the generator on the altered line")
        return (0 if bad is None or cmd == "normalize-proof" else 1), bad
    return 0, None


def _check_cli(wl, q, out):
    code, detail = _cli_expect(wl, q)
    if out["code"] == 2 and code != 2:
        return f"raised: exit 2: {out['stderr'][-300:]}"
    if out["code"] != code:
        return f"exit {out['code']}, expected {code}: {out['stderr'][-300:]}"
    argv = q["argv"]
    cmd = argv[0]
    c = wl.corpus
    opt = options(argv)
    if "--json" in argv:
        report = json.loads(out["stdout"])
        if report.get("schema") != 1:
            return "report without schema 1"
        if cmd in ("check", "hypercheck") and code == 1:
            alg = c.algebras[opt["algebra"]]
            wj = report["witness"]
            labels = {lab: i for i, lab in enumerate(alg.labels)}
            env = {int(v[1:]): labels[e] for v, e in wj["assignment"].items()}
            items = [c.quasis[opt["quasi"]][1]] if "quasi" in opt else c.theories[opt["theory"]][1]
            item = items[wj["item"] or 0]
            sigma = O.identity(alg.sig) if wj["sigma"] is None else {
                op: O.parse_term(t, alg.sig) for op, t in wj["sigma"].items()}
            image = O.map_quasi(item, lambda t: O.apply_sigma(sigma, t))
            if not O.replay(alg, image, env):
                return "JSON witness does not replay"
            if env != detail["assignment"] or labels[wj["lhs"]] != detail["lhs"]:
                return "JSON witness is not the first in order"
        if cmd == "solid-check" and code == 1:
            if report["witness"]["failures"] != len(detail):
                return "solid-check failure count differs"
        if cmd == "verify-proof" and code == 1:
            if report["witness"]["line"] != detail + 1:
                return "verify-proof names the wrong line"
        return None
    files = out.get("files", {})
    if cmd == "derive":
        got = O.Corpus().load(files[opt["out"]]).algebras[opt["algebra"]]
        src = c.algebras[opt["algebra"]]
        want = O.derived_tables(src, c.hypersubs[opt["sigma"]][1])
        if tuple(got.tables[op] for op, _ in src.sig.ops) != want or got.labels != src.labels:
            return "derived algebra file differs"
    elif cmd == "hyperclose":
        got = O.Corpus().load(files[opt["out"]]).theories[opt["theory"]][1]
        want = O.hyperclose(c.theories[opt["theory"]][1], c.elements(opt["monoid"]))
        if [O.qkey(i) for i in got] != [O.qkey(i) for i in want]:
            return "hyperclose file differs from the sigma-images"
    elif cmd == "normalize-proof":
        p = c.proofs[opt["proof"]]
        return _normal_form_problem(files[opt["out"]], p["lines"][-1][0])
    elif cmd == "saturate":
        head, *rest = out["stdout"].splitlines()
        model = c.algebras[wl.models.get(opt["theory"], "z3sub")]
        sig = c.theories[opt["theory"]][0]
        items = [O.parse_quasi(l.strip().rstrip(";"), sig) for l in rest
                 if l.startswith("  ")]
        if head.split()[2] != str(len(items)):
            return "saturate item count differs from the listed items"
        for item in items:
            if O.first_failure(model.tables, model.size, item) is not None:
                return "saturate printed an unsound item"
    elif cmd == "monoid":
        lines = out["stdout"].splitlines()[1:]
        sig, _ = c.monoids[opt["monoid"]]
        want = [_sigma_strs(sig, s) for s in c.elements(opt["monoid"])]
        got = [[part.split(" -> ")[1] for part in l.split(": ", 1)[1].split("; ")] for l in lines]
        if got != want:
            return "monoid listing differs"
    elif cmd in ("check", "hypercheck", "solid-check", "verify-proof"):
        word = {0: ("HOLDS", "VALID"), 1: ("FAILS", "INVALID")}[code]
        if not any(w in out["stdout"] for w in word):
            return "human verdict word missing"
    return None


CHECKS = {
    "hyper": _check_hyper,
    "solid": _check_solid,
    "derive": _check_derive,
    "saturate": _check_saturate,
    "check_saturated": _check_saturated_proof,
    "check_proof": _check_proof,
    "normalize": _check_normalize,
    "hyperclose": _check_hyperclose,
    "cli": _check_cli,
}


def check(wl: Workload, index: int, out) -> str | None:
    q = wl.questions[index]
    if isinstance(out, dict) and "error" in out and q["kind"] != "cli":
        return f"raised: {out['error']}"
    try:
        return CHECKS[q["kind"]](wl, q, out)
    except (O.OracleError, KeyError, ValueError, IndexError, TypeError) as exc:
        return f"output could not be checked: {exc!r}"


def main(argv=None) -> int:
    """Write one seed's generated `.hql` file and question list."""
    import argparse
    import os

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write into")
    ap.add_argument("--root", default=".", help="checkout root (default: current directory)")
    args = ap.parse_args(argv)
    wl = generate(args.workload, args.seed, args.root)
    os.makedirs(args.out, exist_ok=True)
    name, text = wl.files[-1]
    with open(os.path.join(args.out, name), "w", encoding="utf-8") as handle:
        handle.write(text)
    with open(os.path.join(args.out, "questions.json"), "w", encoding="utf-8") as handle:
        json.dump(wl.questions, handle, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
