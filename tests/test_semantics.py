import collections
import itertools
import random
import timeit
from dataclasses import replace
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hql.algebras import BLOCK, AlgebraError, FiniteAlgebra, all_algebras
from hql.hypersubs import HyperSub, Monoid, MonoidError
import hql.semantics
from hql.semantics import (
    Theory,
    basic_terms,
    check_absorption,
    check_basic_preservation,
    check_solidity,
    classify_basic,
    hyper_satisfies,
    hyper_satisfies_theory,
    is_compatible,
    is_flat,
    is_zero_semilattice,
    satisfies,
    satisfies_theory,
)
from hql.terms import App, Equation, QuasiEquation, Signature, Var, iter_terms, subst_vars, term_key, variables

import _eval_oracle
import _flat_oracle
import _hyper_oracle as oracle
from strategies import GRP, LAT, MIXED, TERN, quasis, random_algebras, terms

x0, x1, x2 = Var(0), Var(1), Var(2)


def replay(algebra, quasi, cex):
    """Counterexamples must reproduce, under the recursive reference
    evaluator: premises hold, conclusion split."""
    target = cex.sigma.apply_quasi(quasi) if cex.sigma is not None else quasi
    env = cex.assignment
    for p in target.premises:
        assert _eval_oracle.eval(algebra, p.lhs, env) == _eval_oracle.eval(algebra, p.rhs, env)
    lhs = _eval_oracle.eval(algebra, target.conclusion.lhs, env)
    rhs = _eval_oracle.eval(algebra, target.conclusion.rhs, env)
    assert (lhs, rhs) == (cex.lhs_value, cex.rhs_value)
    assert lhs != rhs


def test_z3_satisfies_cancellation(ws):
    z3 = ws.algebra("z3sub")
    assert satisfies(z3, ws.quasi("right_cancellation")[1]) is True
    assert satisfies(z3, ws.quasi("left_cancellation")[1]) is True


def test_trivial_equation_refuted_with_first_witness(ws):
    l2 = ws.algebra("l2")
    result = satisfies(l2, Equation(x0, x1))
    assert not result
    assert result.assignment == {0: 0, 1: 1}
    replay(l2, QuasiEquation((), Equation(x0, x1)), result)


def test_unsatisfiable_premise_is_vacuous(ws):
    b2 = ws.algebra("b2")
    assert satisfies(b2, ws.quasi("vacuous_example")[1]) is True


def test_trivial_monoid_reduces_to_classical(ws):
    z3 = ws.algebra("z3sub")
    trivial = Monoid.trivial(GRP)
    for name in ("right_cancellation", "left_cancellation"):
        quasi = ws.quasi(name)[1]
        assert hyper_satisfies(z3, quasi, trivial) == satisfies(z3, quasi)
    bad = Equation(App("mul", (x0, x1)), x0)
    hyper = hyper_satisfies(z3, bad, trivial)
    classical = satisfies(z3, bad)
    assert not hyper and not classical
    assert hyper.assignment == classical.assignment


def test_positive_hyperquasi_claims(ws):
    z3 = ws.algebra("z3sub")
    pos = ws.monoid("grp_pos")
    assert hyper_satisfies(z3, ws.quasi("right_cancellation")[1], pos) is True
    assert hyper_satisfies(z3, ws.quasi("left_cancellation")[1], pos) is True


def test_negative_hyperquasi_claim_witnesses_second_projection(ws):
    z3 = ws.algebra("z3sub")
    proj = ws.monoid("grp_proj")
    quasi = ws.quasi("right_cancellation")[1]
    result = hyper_satisfies(z3, quasi, proj)
    assert not result
    assert result.sigma.image("mul") == x1
    assert result.assignment == {0: 0, 1: 0, 2: 1}
    replay(z3, quasi, result)


def test_empty_theory_always_hyper_satisfied(ws):
    empty = Theory(GRP, ())
    z3 = ws.algebra("z3sub")
    assert hyper_satisfies_theory(z3, empty, ws.monoid("grp_proj")) is True


def test_theory_check_reports_first_item(ws):
    z3 = ws.algebra("z3sub")
    proj = ws.monoid("grp_proj")
    result = hyper_satisfies_theory(z3, ws.theory("cancellation"), proj)
    assert not result
    assert result.item == 0
    assert result.sigma.image("mul") == x1


def test_lattice_laws_hold_under_the_four(ws):
    l2 = ws.algebra("l2")
    assert hyper_satisfies_theory(l2, ws.theory("lattice_laws"), ws.monoid("lat_four")) is True


def test_wrong_distributivity_shape_fails(ws):
    l2 = ws.algebra("l2")
    alt = ws.quasi("distrib_alt")[1]
    classical = satisfies(l2, alt)
    assert not classical and classical.assignment == {0: 0, 1: 0, 2: 1}
    hyper = hyper_satisfies(l2, alt, ws.monoid("lat_four"))
    assert not hyper
    replay(l2, alt, hyper)


def test_full_fundamental_monoid_breaks_commutativity(ws):
    # repetition-collapsing images turn f(x, y) = f(y, x) into x = y, so the
    # lattice laws do not survive the full fundamental enumeration; the
    # four-element fixture monoid is where they do hold.
    l2 = ws.algebra("l2")
    result = hyper_satisfies_theory(l2, ws.theory("lattice_laws"), ws.monoid("lat_fund"))
    assert not result
    assert result.item == 1
    img = result.sigma.image("meet")
    assert len(variables(img)) == 1  # a collapsing image


def test_boolean_duality_is_fundamental_hyperidentity(ws):
    b2 = ws.algebra("b2")
    assert hyper_satisfies(b2, ws.quasi("duality_law")[1], ws.monoid("bool_fund")) is True


def test_hyper_satisfaction_monotone_in_image_depth(ws):
    l2 = ws.algebra("l2")
    outcomes = {}
    for name in ("idem_law", "comm_law", "assoc_law", "distrib_law"):
        quasi = ws.quasi(name)[1]
        results = [
            hyper_satisfies(l2, quasi, Monoid.depth_slice(LAT, d)) is True
            for d in (0, 1, 2)
        ]
        # once refuted at some depth, deeper slices stay refuted
        for shallow, deep in zip(results, results[1:]):
            assert shallow or not deep
        outcomes[name] = results
    # the depth-0 slice contains the projections, which collapse commutativity
    assert outcomes["comm_law"][0] is False
    assert outcomes["idem_law"] == [True, True, True]


def test_solidity_trivial_monoid_is_identity_operator(ws):
    base = ws.theory("lattice_laws")
    l2 = ws.algebra("l2")
    assert check_solidity(base, [l2], Monoid.trivial(LAT)) is True


def test_solidity_requires_witness_to_model_base(ws):
    base = ws.theory("lattice_laws")
    chain3 = ws.algebra("chain3")
    l2 = ws.algebra("l2")
    assert satisfies_theory(chain3, base) is True
    assert check_solidity(base, [l2, chain3], Monoid.trivial(LAT)) is True
    bad_base = Theory(LAT, (QuasiEquation((), Equation(x0, x1)),))
    with pytest.raises(AlgebraError):
        check_solidity(bad_base, [l2], Monoid.trivial(LAT))


def test_flat_solidity_under_zero_meet_monoids(ws):
    f3 = ws.algebra("f3")
    base = ws.theory("flat_base")
    assert check_solidity(base, [f3], ws.monoid("flat_zm")) is True
    assert check_solidity(base, [f3], ws.monoid("flat_zmf")) is True


def test_solidity_failure_reported_per_sigma(ws):
    flat = ws.signature("FLAT")
    f3 = ws.algebra("f3")
    base = ws.theory("flat_base")
    # an image dropping x1 makes the derived f ignore its second argument,
    # so zero plugged there no longer absorbs
    collapse = HyperSub.of(
        flat,
        {
            "meet": App("meet", (x0, x1)),
            "zero": App("zero"),
            "f": App("f", (x0, x0)),
        },
    )
    monoid = Monoid.explicit(flat, [HyperSub.identity(flat), collapse])
    report = check_solidity(base, [f3], monoid)
    assert not report
    assert report.failures[0].witness == "f3"
    assert report.failures[0].sigma == collapse


def test_tautological_base_survives_depth_slice(ws):
    eq = Equation(App("meet", (x0, x1)), App("meet", (x0, x1)))
    base = Theory(LAT, (QuasiEquation((), eq),))
    l2 = ws.algebra("l2")
    assert check_solidity(base, [l2], Monoid.depth_slice(LAT, 1)) is True


def test_semantic_bridge_hyper_iff_derived(ws):
    # monoid-hypersatisfaction of e is classical satisfaction in every
    # derived algebra; exhaustive over the fixture items and monoids
    cases = [
        ("z3sub", "grp_pos", ws.theory("cancellation")),
        ("l2", "lat_four", ws.theory("lattice_laws")),
        ("f3", "flat_zmf", ws.theory("flat_base")),
    ]
    for algebra_name, monoid_name, theory in cases:
        algebra = ws.algebra(algebra_name)
        monoid = ws.monoid(monoid_name)
        for item in theory.items:
            lhs = hyper_satisfies(algebra, item, monoid) is True
            rhs = all(
                satisfies(algebra.derived(sigma), item) is True
                for sigma in monoid.elements()
            )
            assert lhs == rhs


def _count_calls(monkeypatch, module, name) -> list[int]:
    count = [0]
    inner = getattr(module, name)

    def counting(*args):
        count[0] += 1
        return inner(*args)

    monkeypatch.setattr(module, name, counting)
    return count


def test_hyper_checks_each_distinct_derived_algebra_once(ws, monkeypatch):
    import hql.semantics

    count = _count_calls(monkeypatch, hql.semantics, "satisfies")
    l2 = ws.algebra("l2")
    monoid = Monoid.depth_slice(LAT, 2)
    assert len(monoid.elements()) == 40_804
    result = hyper_satisfies_theory(l2, ws.theory("lattice_laws"), monoid)
    assert result.item == 1
    # item 0 holds in all 16 distinct derived algebras; item 1 fails in the
    # first member's, and sigma(item 1) is checked once for the witness
    assert count[0] == 16 + 1 + 1


def test_solidity_checks_each_distinct_derived_algebra_once(ws, monkeypatch):
    import hql.semantics

    count = _count_calls(monkeypatch, hql.semantics, "satisfies_theory")
    assert check_solidity(ws.theory("flat_base"), [ws.algebra("f3")], ws.monoid("flat_zm")) is True
    # the precondition, then one check per distinct derived algebra
    assert count[0] == 1 + 2


def test_solidity_evaluates_each_image_subterm_once(ws, monkeypatch):
    f3, base, monoid = ws.algebra("f3"), ws.theory("flat_base"), ws.monoid("flat_zm")
    lookups = [0]
    table = FiniteAlgebra.table

    def counting(self, op):
        lookups[0] += self is f3
        return table(self, op)

    monkeypatch.setattr(FiniteAlgebra, "table", counting)
    assert satisfies_theory(f3, base) is True
    precondition, lookups[0] = lookups[0], 0
    assert check_solidity(base, [f3], monoid) is True
    # the derived tables of one arity share one memo: each application
    # subterm of the images of that arity is looked up in f3 once
    subterms: dict[int, set] = {}
    for sigma in monoid.elements():
        for op, n in f3.sig.ops:
            stack = [sigma.image(op)]
            while stack:
                t = stack.pop()
                if isinstance(t, App):
                    subterms.setdefault(n, set()).add(t)
                    stack += t.args
    assert lookups[0] == precondition + sum(map(len, subterms.values()))


def test_solidity_iff_hyper_satisfaction_for_single_witness(ws):
    f3 = ws.algebra("f3")
    base = ws.theory("flat_base")
    for monoid_name in ("flat_zmf", "flat_zm"):
        monoid = ws.monoid(monoid_name)
        assert (check_solidity(base, [f3], monoid) is True) == (
            hyper_satisfies_theory(f3, base, monoid) is True
        )


# -- differential: one verdict per derived algebra vs the per-sigma oracle ----


def _dropping_monoid(sig):
    """A small monoid whose members have images that drop variables."""
    generators = {
        GRP: [{"mul": x0}, {"mul": x1}],
        LAT: [{"meet": x0, "join": App("meet", (x1, x1))}],
        MIXED: [
            {"f": App("g", (x0,)), "g": App("g", (x0,)), "c": App("c")},
            {"f": x1, "g": x0, "c": App("c")},
        ],
        TERN: [
            {"h": App("g", (x2,)), "g": x0, "c": App("c")},
            {"h": App("h", (x1, x1, App("c"))), "g": App("g", (App("c"),)), "c": App("g", (App("c"),))},
        ],
    }[sig]
    return Monoid.generated(sig, [HyperSub.of(sig, g) for g in generators])


# depth(2) stays with GRP (38 members): over LAT it has 40,804 and over
# MIXED 233,766, too many for the per-sigma oracle on every example.
_DEPTHS = {GRP: (0, 1, 2), LAT: (0, 1), MIXED: (0, 1), TERN: (0, 1)}
# every monoid kind: the depth slices, the other presets, a generated
# monoid and the same members listed explicitly
_MONOIDS = {
    sig: [Monoid.depth_slice(sig, d) for d in depths]
    + [Monoid.trivial(sig), Monoid.fundamental(sig), _dropping_monoid(sig)]
    + [Monoid.explicit(sig, _dropping_monoid(sig).elements())]
    for sig, depths in _DEPTHS.items()
}
_MONOIDS[MIXED] += [Monoid.zero_meet(MIXED, 1, "c", "f"), Monoid.zero_meet_fundamental(MIXED, "c", "f")]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hyper_checks_match_per_sigma_oracle(data):
    sig = data.draw(st.sampled_from([GRP, LAT, MIXED]))
    algebra = data.draw(random_algebras(sig))
    monoid = data.draw(st.sampled_from(_MONOIDS[sig]))
    items = data.draw(st.lists(quasis(sig, max_depth=2, max_premises=2), min_size=1, max_size=3))
    for item in items:
        assert hyper_satisfies(algebra, item, monoid) == oracle.hyper_satisfies(algebra, item, monoid)
    theory = Theory(sig, tuple(items))
    assert hyper_satisfies_theory(algebra, theory, monoid) == oracle.hyper_satisfies_theory(
        algebra, theory, monoid
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_solidity_matches_per_sigma_oracle(data):
    sig = data.draw(st.sampled_from([GRP, LAT, MIXED]))
    drawn = data.draw(st.lists(random_algebras(sig), min_size=1, max_size=2))
    witnesses = [replace(w, name=f"w{i}") for i, w in enumerate(drawn)]
    monoid = data.draw(st.sampled_from(_MONOIDS[sig]))
    items = data.draw(st.lists(quasis(sig, max_depth=2, max_premises=2), max_size=4))
    bases = Theory(sig, tuple(q for q in items if all(satisfies(w, q) is True for w in witnesses)))
    got = check_solidity(bases, witnesses, monoid)
    want = oracle.check_solidity(bases, witnesses, monoid)
    if want is True:
        assert got is True
        return
    assert got.failures == want.failures
    details = [f.detail for f in got.failures]
    assert len({id(d) for d in details}) == len({id(d.assignment) for d in details}) == len(details)


# -- differential: block evaluation vs the recursive per-assignment oracle ---


def _oracle_table(algebra, term, arity):
    rows = itertools.product(range(algebra.size), repeat=arity)
    return tuple(_eval_oracle.eval(algebra, term, dict(enumerate(row))) for row in rows)


def _images(sig, arity, max_depth=3):
    """Terms over x0..x(arity-1), not all of which need occur; over no
    variable at all, the first constant stands in for x0."""
    const = next((App(op) for op, n in sig.ops if n == 0), None)
    drawn = terms(sig, n_vars=max(arity, 1), max_depth=max_depth)
    return drawn if arity else drawn.map(lambda t: subst_vars(t, {0: const}))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_term_tables_match_recursive_oracle(ws, data):
    fixtures = [
        (ws.algebras[a], ws.monoids[m])
        for a in sorted(ws.algebras)
        for m in sorted(ws.monoids)
        if ws.monoids[m].sig == ws.algebras[a].sig
    ]
    drawn = st.sampled_from([GRP, LAT, MIXED, TERN]).flatmap(
        lambda sig: st.tuples(random_algebras(sig), st.sampled_from(_MONOIDS[sig]))
    )
    algebra, monoid = data.draw(st.sampled_from(fixtures) | drawn)
    sig = algebra.sig
    # images of each arity, dropping variables or constant, alone and
    # through one memo per arity as a check shares it
    memos = {n: {} for _, n in sig.ops}
    for _, n in sig.ops:
        images = data.draw(st.lists(_images(sig, n), min_size=1, max_size=4))
        for term in images:
            want = _oracle_table(algebra, term, n)
            assert algebra.term_table(term, n) == want
            assert algebra.term_table(term, n, memos[n]) == want
        assert algebra.term_tables(images, n) == [_oracle_table(algebra, t, n) for t in images]
    # over a depth preset one hyper_satisfies_theory call computes no
    # member key; elsewhere it computes them all, and read here (which
    # computes them over a depth preset too) they are each member's derived
    # tables; each class tuple's tables are its sigma's derived tables
    made = []

    class Recorded(hql.semantics._DerivedAlgebras):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    items = [QuasiEquation((), Equation(x0, x0)), data.draw(quasis(sig, max_depth=2))]
    theory = Theory(sig, tuple(data.draw(st.permutations(items))))
    with mock.patch.object(hql.semantics, "_DerivedAlgebras", Recorded):
        hyper_satisfies_theory(algebra, theory, monoid)
    (derived,) = made
    members = monoid.elements()
    assert ("_keys" in vars(derived)) != (monoid.kind == "depth")
    for sigma, key in zip(members, derived._keys):
        want = tuple(_oracle_table(algebra, sigma.image(op), n) for op, n in sig.ops)
        assert key == algebra.derived(sigma).tables == want
    # every distinct derived algebra with its first member (a class tuple
    # over a depth preset), read after the call through the same memo
    keys = []
    for sigma, d in derived.distinct():
        want = tuple(_oracle_table(algebra, sigma.image(op), n) for op, n in sig.ops)
        assert d.tables == algebra.derived(sigma).tables == want
        keys.append(d.tables)
    assert len(set(keys)) == len(keys)
    assert set(keys) == {algebra.derived(sigma).tables for sigma in members}


WIDE = Signature.of("WIDE", h=8, f=2, c=0)


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_term_table_above_block_matches_recursive_oracle(data):
    # over 3 elements an arity-8 table has 6,561 entries, more than BLOCK,
    # and is evaluated block by block; over 2 it has 256, in one block
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    xs = [Var(i) for i in range(8)]
    # x0 is fixed per block, x4 is dropped
    fixed = App("h", (xs[7], App("f", (xs[0], xs[3])), xs[2], App("c"), xs[5], xs[1], xs[6], xs[0]))
    others = st.lists(_images(WIDE, 8).filter(lambda t: t is not fixed), max_size=3, unique=True)
    images = [fixed, *data.draw(others)]
    for size in (2, 3):
        tables = {op: [rng.randrange(size) for _ in range(size**n)] for op, n in WIDE.ops}
        algebra = FiniteAlgebra.of(WIDE, [str(i) for i in range(size)], tables)
        memo = {}
        for term in images:
            want = _oracle_table(algebra, term, 8)
            assert algebra.term_table(term, 8) == want
            assert algebra.term_table(term, 8, memo) == want
        assert algebra.term_tables(images, 8) == [memo[t] for t in images]
        # a repeated image is evaluated and written to the memo once
        repeated = [*images, *images[::-1], fixed]
        counting = _CountingMemo()
        assert algebra.term_tables(repeated, 8, counting) == [memo[t] for t in repeated]
        assert max(counting.writes.values()) == 1
    # above BLOCK the memo holds finished tables only, never a block of one
    assert 3**8 > BLOCK
    assert set(memo) == set(counting) == set(images)
    assert all(len(t) == 3**8 for t in memo.values())


class _CountingMemo(dict):
    """A memo that counts the writes to each of its terms."""

    def __init__(self):
        super().__init__()
        self.writes = collections.Counter()

    def __setitem__(self, term, table):
        self.writes[term] += 1
        super().__setitem__(term, table)


# -- differential: per-operation table classes vs sorted term lists --------


def _reference_classes(algebra, arity, depth):
    """The first term of each table among every term of depth <= `depth`
    sorted by term_key, tables by the recursive evaluator."""
    found = {}
    for term in sorted(iter_terms(algebra.sig, arity, depth), key=term_key):
        found.setdefault(_oracle_table(algebra, term, arity), term)
    return list(found.items())


def _class_depths(ws):
    """Each signature with the greatest depth its reference sorts quickly;
    past their closing depths on small algebras, where the tables stop
    growing but representatives may still move."""
    return {GRP: 3, LAT: 2, ws.signature("BOOL"): 1, ws.signature("FLAT"): 2, MIXED: 2}


def test_term_classes_match_sorted_terms_on_fixtures(ws):
    depths = _class_depths(ws)
    for algebra in ws.algebras.values():
        for n in {n for _, n in algebra.sig.ops}:
            for depth in range(depths[algebra.sig] + 1):
                got = algebra.term_classes(n, depth)
                assert list(got.items()) == _reference_classes(algebra, n, depth), (algebra.name, n, depth)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_term_classes_match_sorted_terms(ws, data):
    depths = _class_depths(ws)
    sig = data.draw(st.sampled_from(sorted(depths, key=lambda sig: sig.name)))
    algebra = data.draw(random_algebras(sig, min_size=2))
    # one memo per arity across the depths, as a check shares it
    for n in sorted({n for _, n in sig.ops}):
        memo = {}
        for depth in range(depths[sig] + 1):
            want = _reference_classes(algebra, n, depth)
            assert list(algebra.term_classes(n, depth).items()) == want
            assert list(algebra.term_classes(n, depth, memo).items()) == want


def test_term_class_representatives_move_after_closure():
    # meet is "and", join the first projection: join(meet(x0, x1), x0) has
    # the table of meet(x0, x1) and is less by term_key ("join" < "meet")
    algebra = FiniteAlgebra.of(LAT, ["0", "1"], {"meet": [0, 0, 0, 1], "join": [0, 0, 1, 1]})
    meet = App("meet", (x0, x1))
    layers = [algebra.term_classes(2, depth) for depth in range(4)]
    assert list(layers[1]) == list(layers[2]) == list(layers[3])  # closed at depth 1
    assert layers[1][(0, 0, 0, 1)] == meet
    assert layers[2][(0, 0, 0, 1)] == App("join", (meet, x0))
    assert layers[3][(0, 0, 0, 1)] == App("join", (App("join", (meet, x0)), x0))
    for depth, layer in enumerate(layers[:3]):
        assert list(layer.items()) == _reference_classes(algebra, 2, depth)


# -- differential: the class walk over depth(d) vs the member walk -----------


def _member_walk(algebra, theory, monoid):
    """The hyper check over every member: keys in canonical order, one
    check per distinct key per item."""
    derived = hql.semantics._DerivedAlgebras(algebra, monoid)
    for i, quasi in enumerate(theory.items):
        for sigma, ok in derived.results(lambda d: bool(satisfies(d, quasi))):
            if not ok:
                result = satisfies(algebra, sigma.apply_quasi(quasi))
                result.sigma, result.item = sigma, i
                return result
    return True


def _first_members(algebra, monoid):
    """(sigma, tables) for the first member with each tuple of derived
    tables, in member order."""
    first = {}
    for sigma in monoid.elements():
        first.setdefault(algebra.derived(sigma).tables, sigma)
    return [(sigma, key) for key, sigma in first.items()]


def _class_walk(algebra, monoid):
    return [(sigma, d.tables) for sigma, d in hql.semantics._DerivedAlgebras(algebra, monoid).distinct()]


# every depth(d) slice within the refusal bound
_SLICES = [(GRP, d) for d in range(4)] + [(LAT, d) for d in range(3)]


def test_class_walk_matches_member_walk_on_fixtures(ws):
    for sig, depth in _SLICES:
        monoid = Monoid.depth_slice(sig, depth)
        theories = [t for t in ws.theories.values() if t.sig == sig]
        theories += [Theory(sig, (q,)) for qsig, q in ws.quasis.values() if qsig == sig]
        for algebra in (a for a in ws.algebras.values() if a.sig == sig):
            assert _class_walk(algebra, monoid) == _first_members(algebra, monoid)
            for theory in theories:
                got = hyper_satisfies_theory(algebra, theory, monoid)
                assert got == _member_walk(algebra, theory, monoid), (algebra.name, theory.name, depth)
    l2, laws = ws.algebra("l2"), ws.theory("lattice_laws")
    assert hyper_satisfies_theory(l2, laws, Monoid.depth_slice(LAT, 2)) == oracle.hyper_satisfies_theory(
        l2, laws, Monoid.depth_slice(LAT, 2)
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_class_walk_matches_member_walk(data):
    sig, depth = data.draw(st.sampled_from(_SLICES))
    # a size-3 LAT algebra can have 18,496 class tuples at depth 2
    algebra = data.draw(random_algebras(sig, min_size=2, max_size=2 if (sig, depth) == (LAT, 2) else 3))
    monoid = Monoid.depth_slice(sig, depth)
    items = data.draw(st.lists(quasis(sig, max_depth=2, max_premises=2), min_size=1, max_size=3))
    theory = Theory(sig, tuple(items))
    assert _class_walk(algebra, monoid) == _first_members(algebra, monoid)
    got = hyper_satisfies_theory(algebra, theory, monoid)
    assert got == _member_walk(algebra, theory, monoid)
    if monoid.size() <= 1446:  # the per-sigma oracle on every member
        assert got == oracle.hyper_satisfies_theory(algebra, theory, monoid)


def test_class_walk_lists_no_member(ws, monkeypatch):
    # 16 class tuples for the 40,804 members of depth(2) over LAT on l2,
    # 9 for the 1,446 of depth(3) over GRP on z3sub
    monkeypatch.setattr(Monoid, "elements", lambda self: pytest.fail("member list built"))
    for name, sig, depth, tuples in (("l2", LAT, 2, 16), ("z3sub", GRP, 3, 9)):
        assert len(_class_walk(ws.algebra(name), Monoid.depth_slice(sig, depth))) == tuples
    # an oversized slice is refused before any table is built
    monkeypatch.setattr(FiniteAlgebra, "term_classes", lambda *a: pytest.fail("classes built"))
    with pytest.raises(MonoidError, match="depth over LAT has 6,660,192,100 members"):
        hyper_satisfies_theory(ws.algebra("l2"), Theory(LAT, ()), Monoid.depth_slice(LAT, 3))


def _same_verdict(got, want):
    if want is True:
        assert got is True
        return
    assert (got.failed, list(got.assignment.items()), got.lhs_value, got.rhs_value) == (
        want.failed, list(want.assignment.items()), want.lhs_value, want.rhs_value
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_satisfies_matches_recursive_oracle(ws, data):
    fixtures = [ws.algebras[name] for name in sorted(ws.algebras)]
    drawn = st.sampled_from([GRP, LAT, MIXED, TERN]).flatmap(lambda sig: random_algebras(sig, min_size=2))
    algebra = data.draw(st.sampled_from(fixtures) | drawn)
    # over one or two variables the premises often leave a block no survivor
    quasi = data.draw(quasis(algebra.sig, n_vars=data.draw(st.sampled_from([1, 2, 4]))))
    _same_verdict(satisfies(algebra, quasi), _eval_oracle.satisfies(algebra, quasi))


def _mul_chain(ts):
    out = ts[-1]
    for t in reversed(ts[:-1]):
        out = App("mul", (t, out))
    return out


def test_satisfies_across_blocks_matches_oracle():
    # 7 variables over 4 elements: 16,384 assignments in 4 blocks, x0 fixed per block
    chain4 = FiniteAlgebra.of(GRP, ["0", "1", "2", "3"], {"mul": [max(a, b) for a in range(4) for b in range(4)]})
    xs = [Var(i) for i in range(7)]
    assert len(list(chain4.blocks(range(7)))) == 4
    below_x6 = Equation(App("mul", (xs[0], xs[6])), xs[6])
    absorbed = Equation(App("mul", (xs[0], _mul_chain(xs[1:6]))), _mul_chain(xs[1:6]))
    refuted = QuasiEquation((below_x6,), absorbed)
    got = satisfies(chain4, refuted)
    _same_verdict(got, _eval_oracle.satisfies(chain4, refuted))
    assert got.assignment[0] > 0  # past the first block, where x0 = 0
    holds = QuasiEquation((below_x6,), Equation(_mul_chain(xs), _mul_chain(xs[::-1])))
    assert satisfies(chain4, holds) is True
    assert _eval_oracle.satisfies(chain4, holds) is True


def test_ground_and_empty_block_edges_match_oracle(ws):
    b2 = ws.algebra("b2")
    zero, one, x, y = App("zero"), App("one"), Var(0), Var(1)
    # a ground quasi has one assignment, the empty one
    false_premise = QuasiEquation((Equation(zero, one),), Equation(zero, one))
    true_premise = QuasiEquation((Equation(zero, zero),), Equation(zero, one))
    # premises that hold nowhere, alone and only together
    nowhere = QuasiEquation((Equation(App("not", (x,)), x),), Equation(x, y))
    jointly = QuasiEquation((Equation(x, zero), Equation(x, one)), Equation(x, y))
    for quasi in (false_premise, nowhere, jointly):
        assert satisfies(b2, quasi) is True
        assert _eval_oracle.satisfies(b2, quasi) is True
    got = satisfies(b2, true_premise)
    _same_verdict(got, _eval_oracle.satisfies(b2, true_premise))
    assert got.assignment == {}


def test_witness_after_a_block_without_survivors_matches_oracle():
    # 7 variables over 4 elements, x0 fixed per block; mul(x0, x0) = x0
    # fails exactly at x0 = 0, so the first block has no survivor
    table = [max(a, b) for a in range(4) for b in range(4)]
    table[0] = 1
    chain4 = FiniteAlgebra.of(GRP, ["0", "1", "2", "3"], {"mul": table})
    xs = [Var(i) for i in range(7)]
    idempotent = Equation(App("mul", (xs[0], xs[0])), xs[0])
    quasi = QuasiEquation((idempotent,), Equation(_mul_chain(xs[1:4]), _mul_chain(xs[4:7])))
    got = satisfies(chain4, quasi)
    _same_verdict(got, _eval_oracle.satisfies(chain4, quasi))
    assert got.assignment[0] == 1  # the second block


def test_signature_mismatch_is_an_error(ws):
    l2, z3 = ws.algebra("l2"), ws.algebra("z3sub")
    grp_proj, cancellation = ws.monoid("grp_proj"), ws.theory("cancellation")
    with pytest.raises(AlgebraError, match="algebra l2 is over LAT, theory cancellation is over GRP"):
        hyper_satisfies_theory(l2, cancellation, grp_proj)
    with pytest.raises(AlgebraError, match="algebra l2 is over LAT, monoid grp_proj is over GRP"):
        hyper_satisfies(l2, ws.quasi("right_cancellation")[1], grp_proj)
    with pytest.raises(AlgebraError, match="theory cancellation is over GRP, witness l2 is over LAT"):
        check_solidity(cancellation, [z3, l2], grp_proj)
    with pytest.raises(AlgebraError, match="theory cancellation is over GRP, monoid lat_four is over LAT"):
        check_solidity(cancellation, [z3], ws.monoid("lat_four"))


# -- zero-semilattice / flat checks -------------------------------------------


def test_f3_is_zero_semilattice(ws):
    assert is_zero_semilattice(ws.algebra("f3"), "meet", "zero") is True


def test_broken_absorption_detected(ws):
    result = is_zero_semilattice(ws.algebra("f3_bad"), "meet", "zero")
    assert not result
    assert result.label == "absorption f@1"
    assert result.assignment == {0: 1}


def test_one_element_algebra_is_degenerate_zero_semilattice():
    sig = Signature.of("FLAT1", meet=2, zero=0)
    algebra = FiniteAlgebra.of(sig, ["0"], {"meet": [0], "zero": [0]})
    assert is_zero_semilattice(algebra, "meet", "zero") is True
    assert is_flat(algebra, "meet", "zero") is True


def test_f3_is_flat_chain_is_not(ws):
    assert is_flat(ws.algebra("f3"), "meet", "zero") is True
    result = is_flat(ws.algebra("chain3f"), "meet", "zero")
    assert not result
    assert result.assignment == {0: 1, 1: 2}  # m and 1 meet to m


def test_f3_is_compatible(ws):
    assert is_compatible(ws.algebra("f3"), "meet", "zero") is True


def test_compatibility_violation_detected():
    sig = Signature.of("FLAT", meet=2, zero=0, f=2)
    # f(a, a) = a but f(a meet a, a) table tampered via non-meet-respecting op
    tables = {
        "meet": [0, 0, 0, 0, 1, 0, 0, 0, 2],
        "zero": [0],
        "f": [0, 0, 0, 0, 1, 2, 0, 2, 2],
    }
    algebra = FiniteAlgebra.of(sig, ["0", "a", "b"], tables)
    result = is_compatible(algebra, "meet", "zero")
    assert not result
    assert result.label.startswith("compatibility f@")


# -- basic terms ---------------------------------------------------------------


POOL = list(range(100, 120))


def test_basic_depth_zero(ws):
    flat = ws.signature("FLAT")
    assert list(basic_terms(flat, 0, 0, POOL)) == [x0]


def test_basic_depth_one_count(ws):
    flat = ws.signature("FLAT")
    ts = list(basic_terms(flat, 0, 1, POOL))
    assert len(ts) == 4  # two binary ops x two spine positions
    assert len(set(ts)) == 4


def test_basic_depth_two_count(ws):
    flat = ws.signature("FLAT")
    ts = list(basic_terms(flat, 0, 2, POOL))
    assert len(ts) == 16
    assert len(set(ts)) == 16


def test_unary_signature_single_basic_term():
    sig = Signature.of("U", g=1)
    ts = list(basic_terms(sig, 0, 2, POOL))
    assert ts == [App("g", (App("g", (x0,)),))]


def test_generated_basic_terms_classify_back(ws):
    flat = ws.signature("FLAT")
    for depth in range(4):
        for t in basic_terms(flat, 0, depth, POOL):
            assert classify_basic(t, 0) == depth


def test_classifier_rejects_non_basic(ws):
    assert classify_basic(App("meet", (x0, x0)), 0) is None  # x on both sides
    assert classify_basic(App("meet", (x1, x2)), 0) is None  # no spine
    assert classify_basic(App("zero"), 0) is None
    # repeated side variable across levels
    bad = App("meet", (App("meet", (x0, x1)), x1))
    assert classify_basic(bad, 0) is None


def test_preservation_identity_and_permutation(ws):
    flat = ws.signature("FLAT")
    assert check_basic_preservation(HyperSub.identity(flat), flat) is True
    perm = HyperSub.of(
        flat,
        {"meet": App("meet", (x0, x1)), "zero": App("zero"), "f": App("meet", (x1, x0))},
    )
    assert check_basic_preservation(perm, flat) is True


def test_preservation_guards_precondition(ws):
    flat = ws.signature("FLAT")
    nonfund = HyperSub.of(
        flat,
        {
            "meet": App("meet", (App("meet", (x0, x1)), x1)),
            "zero": App("zero"),
            "f": App("f", (x0, x1)),
        },
    )
    with pytest.raises(ValueError):
        check_basic_preservation(nonfund, flat)


def test_absorption_exhaustive_depth_two(ws):
    f3 = ws.algebra("f3")
    assert check_absorption(f3, "meet", "zero") is True
    assert _flat_oracle.check_absorption(f3, "meet", "zero", 2) is True
    # no term sweep: the precondition alone decides every depth
    assert min(timeit.repeat(lambda: check_absorption(f3, "meet", "zero"), number=1, repeat=3)) < 0.005


def test_absorption_precondition(ws):
    with pytest.raises(AlgebraError):
        check_absorption(ws.algebra("f3_bad"), "meet", "zero")


# -- differential: the one-level flat checks vs the depth-bounded sweeps ------

FLAT = Signature.of("FLAT", meet=2, zero=0, f=2)
FLAT_UT = Signature.of("FLAT_UT", meet=2, zero=0, g=1, h=3)


def _absorption_outcome(check, algebra, *depth):
    try:
        return check(algebra, "meet", "zero", *depth)
    except AlgebraError as exc:
        return f"AlgebraError: {exc}"


def test_absorption_matches_sweep_on_every_size_two_algebra():
    # 512 algebras, the zero either element; 4 pass the precondition
    passed = 0
    for a in all_algebras(FLAT, 2):
        got = _absorption_outcome(check_absorption, a)
        assert got == _absorption_outcome(_flat_oracle.check_absorption, a, 2)
        passed += got is True
    assert passed == 4


@st.composite
def zero_absorbing_algebras(draw, sig):
    """Size-3 algebras whose operations all absorb the zero; meet is flat
    (distinct elements meet in zero) about half the time, so a good share
    are zero-semilattices."""
    size, zero = 3, draw(st.integers(0, 2))
    tables = {}
    for op, n in sig.ops:
        cells = list(itertools.product(range(size), repeat=n))
        if op == "zero":
            table = [zero]
        elif op == "meet" and draw(st.booleans()):
            table = [a if a == b else zero for a, b in cells]
        else:
            table = draw(st.lists(st.integers(0, size - 1), min_size=len(cells), max_size=len(cells)))
        tables[op] = [zero if zero in args else v for args, v in zip(cells, table)]
    return FiniteAlgebra.of(sig, [str(i) for i in range(size)], tables, name="a")


# Depth 1 for FLAT_UT: its depth-2 terms number 234,124 up to renaming.
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(FLAT, 2), (FLAT_UT, 1)]).flatmap(
    lambda sd: st.tuples(zero_absorbing_algebras(sd[0]), st.just(sd[1]))))
def test_absorption_matches_sweep_on_zero_absorbing_algebras(case):
    algebra, depth = case
    assert _absorption_outcome(check_absorption, algebra) == _absorption_outcome(
        _flat_oracle.check_absorption, algebra, depth
    )


def symbol_renamings(sig):
    """Every hypersubstitution whose images are each one symbol, of arity at
    most the operation's, over a permutation of its variables."""
    choices = [
        [App(g, tuple(map(Var, perm))) for g, m in sig.ops if m <= n for perm in itertools.permutations(range(m))]
        for _, n in sig.ops
    ]
    for images in itertools.product(*choices):
        yield HyperSub.of(sig, dict(zip(sig.op_names, images)))


def test_preservation_matches_sweep_on_every_symbol_renaming():
    sigmas = failures = 0
    for sig in (Signature.of("A", f=2, g=1, c=0), FLAT, Signature.of("B", h=3, f=2, g=1)):
        for sigma in symbol_renamings(sig):
            got = check_basic_preservation(sigma, sig)
            assert repr(got) == repr(_flat_oracle.check_basic_preservation(sigma, sig, 4))
            # a renaming preserves basic terms iff it keeps every arity
            assert bool(got) == all(
                n == 0 or len(sigma.image(op).args) == n for op, n in sig.ops
            )
            sigmas += 1
            failures += got is not True
    assert (sigmas, failures) == (60, 30)


# -- differential: the spine loops vs the recursive definitions ---------------

# Up to three operations of arity 0-3 (o0, o1, ...).
small_signatures = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(
    lambda arities: Signature.of("R", **{f"o{i}": n for i, n in enumerate(arities)})
)


def _terms_or_error(generator):
    out = []
    try:
        for term in generator:
            out.append(term)
    except ValueError as exc:
        out.append(f"ValueError: {exc}")
    return out


# x in 0-3 and pools drawn from 0-9: x is sometimes in the pool, and a
# pool of at most 6 runs out at depth 3 over a ternary operation.
@settings(max_examples=200, deadline=None)
@given(small_signatures, st.integers(0, 3), st.integers(0, 3), st.lists(st.integers(0, 9), unique=True, max_size=6))
def test_basic_terms_match_recursive_definition(sig, x, depth, pool):
    assert _terms_or_error(basic_terms(sig, x, depth, pool)) == _terms_or_error(
        _flat_oracle.basic_terms(sig, x, depth, pool)
    )


NEAR = Signature.of("NEAR", f=2, g=1, h=3, c=0)


@st.composite
def near_basic_terms(draw):
    """A basic term in x, and often one of its variables replaced by x, a
    variable (perhaps a side one), a constant or an application: x on two
    sides, a repeated side variable, a constant on the spine or an
    application as a side argument."""
    x = draw(st.integers(0, 2))
    term = draw(st.sampled_from(list(_flat_oracle.basic_terms(NEAR, x, draw(st.integers(0, 3)), range(3, 12)))))
    if draw(st.booleans()):
        old = draw(st.sampled_from(sorted(variables(term))))
        new = draw(st.one_of(st.integers(0, 11).map(Var), terms(NEAR, n_vars=4, max_depth=2)))
        term = subst_vars(term, {old: new})
    return term, x


@settings(max_examples=400, deadline=None)
@given(st.one_of(near_basic_terms(), st.tuples(terms(NEAR, n_vars=4, max_depth=3), st.integers(0, 3))))
def test_classify_basic_matches_recursive_definition(case):
    term, x = case
    assert classify_basic(term, x) == _flat_oracle.classify_basic(term, x)


def test_deep_basic_term_builds_and_classifies():
    # deeper than the interpreter's default recursion limit of 1,000
    (term,) = basic_terms(Signature.of("U", g=1), 0, 1500, [])
    assert classify_basic(term, 0) == 1500
