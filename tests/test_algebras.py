import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from hql.algebras import AlgebraError, FiniteAlgebra, all_algebras
from hql.hypersubs import HyperSub
from hql.terms import App, Signature, Var, variables

from strategies import GRP, LAT, MIXED, hypersubs, random_algebras, terms

x0, x1 = Var(0), Var(1)


MEET, JOIN = [0, 0, 0, 1], [0, 1, 1, 1]
# Malformed input to `FiniteAlgebra.of` over LAT, and its exact message.
OF_ERRORS = [
    ("missing_table", ["0", "1"], {"meet": MEET}, "missing table for operation 'join'"),
    ("ragged_table", ["0", "1"], {"meet": [0, 0, 0], "join": JOIN}, "table for 'meet' has 3 entries, expected 4"),
    ("out_of_range_entry", ["0", "1"], {"meet": MEET, "join": [0, 7, 1, 5]},
     "table for 'join' contains out-of-range entry 7"),
    ("negative_entry", ["0", "1"], {"meet": [0, 0, -1, 1], "join": JOIN},
     "table for 'meet' contains out-of-range entry -1"),
    ("empty_universe", [], {"meet": [], "join": []}, "universe must be non-empty"),
    ("duplicate_labels", ["0", "0"], {"meet": MEET, "join": JOIN}, "duplicate element labels"),
    ("unknown_operation", ["0", "1"], {"meet": MEET, "join": JOIN, "foo": [0]},
     "tables for unknown operations ['foo']"),
]


@pytest.mark.parametrize(
    "universe, tables, message", [case[1:] for case in OF_ERRORS], ids=[case[0] for case in OF_ERRORS]
)
def test_of_error_message(universe, tables, message):
    with pytest.raises(AlgebraError) as err:
        FiniteAlgebra.of(LAT, universe, tables)
    assert str(err.value) == message


def test_constructor_takes_one_table_per_operation():
    with pytest.raises(AlgebraError) as err:
        FiniteAlgebra(LAT, ("0", "1"), (tuple(MEET),))
    assert str(err.value) == "1 table(s) for 2 operation(s)"


def test_table_by_operation_name():
    lat = FiniteAlgebra.of(LAT, ["0", "1"], {"join": JOIN, "meet": MEET})
    assert (lat.table("meet"), lat.table("join")) == (tuple(MEET), tuple(JOIN))
    with pytest.raises(AlgebraError) as err:
        lat.table("mul")
    assert str(err.value) == "no table for operation 'mul'"
    # the operation positions are no field of the signature
    renamed = Signature(LAT.ops, name="other")
    assert renamed == LAT and hash(renamed) == hash(LAT)
    assert repr(LAT) == "Signature(ops=(('meet', 2), ('join', 2)), name='LAT')"


def test_eval_variable_case(ws):
    l2 = ws.algebra("l2")
    assert l2.eval(x0, {0: 1}) == 1


def test_eval_two_lookups(ws):
    l2 = ws.algebra("l2")
    t = App("meet", (x0, App("join", (x0, x1))))
    assert l2.eval(t, {0: 0, 1: 1}) == 0


def test_eval_boolean_constant(ws):
    b2 = ws.algebra("b2")
    one = b2.eval(App("not", (App("zero"),)), {})
    assert b2.universe[one] == "1"


def test_eval_unassigned_variable(ws):
    with pytest.raises(AlgebraError):
        ws.algebra("l2").eval(x0, {})


def test_term_table_of_deeply_nested_term(ws):
    l2 = ws.algebra("l2")
    t = x0
    for _ in range(3000):
        t = App("meet", (t, x1))
    assert l2.term_table(t, 2) == l2.table("meet")


def test_derived_under_identity_is_table_identical(ws):
    l2 = ws.algebra("l2")
    assert l2.derived(HyperSub.identity(LAT)).tables == l2.tables


def test_derived_dual_lattice(ws):
    l2 = ws.algebra("l2")
    dual = l2.derived(ws.hypersub("lat_dual")[1])
    assert dual.table("meet") == l2.table("join")
    assert dual.table("join") == l2.table("meet")


@settings(max_examples=120)
@given(hypersubs(LAT), terms(LAT, n_vars=2, max_depth=3), st.tuples(st.integers(0, 1), st.integers(0, 1)))
def test_derived_algebra_bridge_random(ws, sigma, t, env_vals):
    l2 = ws.algebra("l2")
    env = {0: env_vals[0], 1: env_vals[1]}
    assert l2.derived(sigma).eval(t, env) == l2.eval(sigma.apply(t), env)


@settings(max_examples=60)
@given(hypersubs(LAT, max_depth=1), hypersubs(LAT, max_depth=1))
def test_derived_functoriality(ws, s1, s2):
    # deriving by s2 and then by s1 equals deriving once by (s2 after s1):
    # the second derivation evaluates s1-images inside the s2-derived algebra
    l2 = ws.algebra("l2")
    assert l2.derived(s2).derived(s1).tables == l2.derived(s2.compose(s1)).tables


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_term_table_from_argument_tables(data):
    # the table of f(t1, ..., tk) is f applied to the tables of the ti as columns
    sig = data.draw(st.sampled_from([GRP, LAT, MIXED]))
    algebra = data.draw(random_algebras(sig))
    op, k = data.draw(st.sampled_from([(op, k) for op, k in sig.ops if k >= 1]))
    n = data.draw(st.integers(1, 3))
    args = data.draw(st.tuples(*[terms(sig, n_vars=n, max_depth=3)] * k))
    columns = {i: algebra.term_table(t, n) for i, t in enumerate(args)}
    step = algebra.values([App(op, tuple(Var(i) for i in range(k)))], columns)[0]
    assert algebra.term_table(App(op, args), n) == tuple(step)


def test_all_algebras_count():
    assert sum(1 for _ in all_algebras(GRP, 2)) == 16
    one = list(all_algebras(GRP, 1))
    assert len(one) == 1 and one[0].size == 1


@settings(max_examples=120)
@given(
    terms(LAT, n_vars=2, max_depth=3),
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
)
def test_eval_substitution_lemma(ws, t, env_vals):
    # evaluating a substituted term equals evaluating the term under the
    # pointwise-evaluated environment
    from hql.terms import App, Substitution

    l2 = ws.algebra("l2")
    env = {0: env_vals[0], 1: env_vals[1]}
    delta = Substitution.of({0: App("join", (Var(0), Var(1))), 1: App("meet", (Var(0), Var(0)))})
    inner_env = {i: l2.eval(delta.apply(Var(i)), env) for i in (0, 1)}
    assert l2.eval(delta.apply(t), env) == l2.eval(t, inner_env)
