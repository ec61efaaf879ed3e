import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from hql.algebras import AlgebraError, FiniteAlgebra, all_algebras
from hql.hypersubs import HyperSub
from hql.terms import App, Var, variables

from strategies import GRP, LAT, hypersubs, terms

x0, x1 = Var(0), Var(1)


def test_table_validation():
    with pytest.raises(AlgebraError):
        FiniteAlgebra.of(LAT, ["0", "1"], {"meet": [0, 0, 0, 1]})  # join missing
    with pytest.raises(AlgebraError):
        FiniteAlgebra.of(
            LAT, ["0", "1"], {"meet": [0, 0, 0], "join": [0, 1, 1, 1]}
        )  # ragged
    with pytest.raises(AlgebraError):
        FiniteAlgebra.of(
            LAT, ["0", "1"], {"meet": [0, 0, 0, 5], "join": [0, 1, 1, 1]}
        )  # out of range
    with pytest.raises(AlgebraError):
        FiniteAlgebra.of(LAT, [], {"meet": [], "join": []})


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
