"""Weight sequence construction and the associated counting function."""

import ast
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsmoment import (DEFAULT_HORIZON, MAX_HORIZON, HorizonExceeded,
                      IndexOutOfHorizon, InvalidParameter, NotAWeightSequence,
                      RequiresLogConvexity, associated_function, from_expr,
                      from_table, gevrey, is_log_convex, make_sequence,
                      q_gevrey, two_interpolate)
from gsmoment import weightseq
from gsmoment.weightseq import _lgamma


def test_gevrey_log_values_match_factorial_powers():
    ws = gevrey(1.0, horizon=64)
    assert ws.log_weight(0) == 0.0
    assert ws.log_weight(3) == pytest.approx(math.log(6.0), rel=1e-15)
    ws2 = gevrey(2.0, horizon=64)
    assert ws2.log_weight(3) == pytest.approx(2.0 * math.log(6.0), rel=1e-15)


def test_q_gevrey_log_values_are_square_multiples_of_log_q():
    ws = q_gevrey(2.0, horizon=64)
    assert ws.log_weight(3) == pytest.approx(9.0 * math.log(2.0), rel=1e-15)
    assert ws.log_weight(4) == pytest.approx(16.0 * math.log(2.0), rel=1e-15)


def test_default_horizon_applies():
    assert gevrey(1.5).horizon == DEFAULT_HORIZON


def test_table_requires_normalized_start():
    logs = list(gevrey(1.0, horizon=64).log_values)
    logs[0] = 1.0
    with pytest.raises(NotAWeightSequence):
        from_table(logs)


def test_table_requires_divergent_ratios():
    # constant-ratio data (pure geometric growth) carries no divergence
    # witness over the horizon and is rejected
    with pytest.raises(NotAWeightSequence):
        from_table([0.5 * p for p in range(65)])


def test_bad_parameters_rejected():
    with pytest.raises(InvalidParameter):
        gevrey(-1.0)
    with pytest.raises(InvalidParameter):
        q_gevrey(1.0)
    with pytest.raises(InvalidParameter):
        gevrey(1.0, horizon=3)


def test_horizon_above_the_cap_is_refused():
    with pytest.raises(InvalidParameter, match="above maximum"):
        gevrey(2.0, horizon=MAX_HORIZON + 1)
    base = gevrey(2.0, horizon=MAX_HORIZON // 2)
    assert two_interpolate(base).interpolated.horizon == MAX_HORIZON
    with pytest.raises(InvalidParameter):
        two_interpolate(gevrey(2.0, horizon=MAX_HORIZON // 2 + 1))


def _lgamma_gap(xs):
    ref = np.array([math.lgamma(x) for x in xs])
    return np.max(np.abs(_lgamma(xs) - ref) / np.maximum(1.0, np.abs(ref)))


def test_lgamma_matches_the_standard_library():
    rng = np.random.default_rng(7)
    below = rng.uniform(-15.7, 16.0, 20000)
    below = below[below != np.round(below)]
    for xs in (np.arange(1.0, 2.0 ** 17 + 2), np.arange(-15.5, 5000.0),
               rng.uniform(0.01, 1e5, 50000), below):
        assert _lgamma_gap(xs) <= 1e-14
    assert np.all(_lgamma(np.arange(-15.0, 1.0)) == math.inf)
    assert _lgamma(np.asarray(5.0)) == pytest.approx(math.log(24.0),
                                                     rel=1e-15)
    assert _lgamma(20.0) == pytest.approx(math.lgamma(20.0), rel=1e-15)


def test_steep_gevrey_keeps_exact_normalization():
    # log M_0 = 1000 lgamma(1) must stay exactly 0 for the M_0 = 1 check
    ws = gevrey(1000.0)
    assert ws.log_weight(0) == 0.0
    assert ws.log_weight(1) == 0.0


def test_expr_table_matches_direct_evaluation():
    ws = from_expr("2.0 * p * log(p + 1)", horizon=64)
    assert ws.log_weight(5) == pytest.approx(10.0 * math.log(6.0), rel=1e-14)


LAMBDA_RULE = ("2*lgamma(p+1) + 0*(lambda q: "
               "().__class__.__base__.__subclasses__().__len__())(p)")
# a valid rule exactly weightseq._RULE_CAP characters long and 487 signs
# deep, about as deep as a rule within the cap can nest
RULE_AT_CAP = "+" + "--" * 243 + "2*lgamma(p+1)"


@pytest.mark.parametrize("rule", [
    "lgamma(p+1) + 'x'",
    "lgamma(p+1) + 1" + "0" * 400,
    LAMBDA_RULE,
    "lgamma(p+1) + p.real",
    "lgamma(p+1) + p[0]",
    "lgamma(p+1) + sum([q for q in p])",
    "lgamma(x=p+1)",
    "lgamma((q := p+1))",
    "lgamma(p+1) if p else p",
    "lgamma(p+1) * (p < 2)",
    "'lgamma(p+1)'",
    "lgamma(p+1) + True",
    "lgamma(p+1) + 1j",
    "lgamma(p+1) + 1/0",
    pytest.param(RULE_AT_CAP + "+", id="one-over-the-cap"),
    "p+",
    pytest.param("+".join(["p"] * 20000), id="20000-terms"),
    pytest.param("-" * 19999 + "p", id="20000-signs"),
])
def test_expr_rule_failures_are_invalid_parameters(rule):
    with pytest.raises(InvalidParameter):
        from_expr(rule, horizon=64)


def test_constant_rule_is_not_a_weight_sequence():
    # the value is broadcast over p, so WeightSequence's checks see it
    with pytest.raises(NotAWeightSequence, match="normalization"):
        from_expr("2", horizon=64)


def test_deepest_rule_at_the_cap_evaluates():
    assert len(RULE_AT_CAP) == weightseq._RULE_CAP
    np.testing.assert_array_equal(
        from_expr(RULE_AT_CAP, horizon=64).log_values,
        from_expr("2*lgamma(p+1)", horizon=64).log_values)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
def test_gevrey_rules_give_the_factorial_powers_bit_for_bit(alpha):
    # the rules the command-line benchmark draws, "%r*lgamma(p+1)"
    ws = from_expr("%r*lgamma(p+1)" % alpha)
    ps = np.arange(16 * ws.horizon + 1)
    want = alpha * _lgamma(ps + 1.0)
    assert ws.log_values.tobytes() == want[:ws.horizon + 1].tobytes()
    assert ws.log_weight_array(ps).tobytes() == want.tobytes()


def test_no_source_file_executes_code_from_text():
    # weight rules are evaluated by an allow-listed tree walk, so nothing
    # in the package may compile or run a string
    src = os.path.dirname(weightseq.__file__)
    names = [name for name in os.listdir(src) if name.endswith(".py")]
    called = set()
    for name in names:
        with open(os.path.join(src, name)) as handle:
            tree = ast.parse(handle.read())
        called.update(node.func.id for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name))
    assert "weightseq.py" in names and "float" in called
    assert not called & {"eval", "exec", "compile", "__import__"}


@pytest.mark.parametrize("descriptor", [
    {"kind": "gevrey"},
    {"kind": "gevrey", "params": {"alpha": "x"}},
    {"kind": "gevrey", "params": [1]},
    {"kind": "qgevrey", "params": {"q": None}},
    {"kind": "table", "params": {"log_values": 5}},
    {"kind": "table", "params": {"log_values": [0.0, "x"]}},
    {"kind": ["gevrey"], "params": {}},
    "gevrey",
])
def test_malformed_descriptors_are_invalid_parameters(descriptor):
    with pytest.raises(InvalidParameter):
        make_sequence(descriptor)


def test_descriptor_roundtrip_reproduces_values():
    for ws in (gevrey(2.5, horizon=128), q_gevrey(1.5, horizon=128),
               from_table(list(gevrey(2.0, horizon=64).log_values))):
        back = make_sequence(ws.descriptor())
        assert back.horizon == ws.horizon
        np.testing.assert_allclose(back.log_values, ws.log_values,
                                   rtol=0, atol=0)


def test_log_weight_array_agrees_with_scalar():
    ws = gevrey(1.5, horizon=64)
    idx = np.array([0, 1, 7, 64])
    np.testing.assert_allclose(ws.log_weight_array(idx),
                               [ws.log_weight(int(i)) for i in idx])
    # closed-form kinds extend past the cache
    assert ws.log_weight(65) == pytest.approx(
        1.5 * math.lgamma(66.0), rel=1e-15)


def test_table_backed_sequence_stops_at_horizon():
    ws = from_table(list(gevrey(1.0, horizon=64).log_values))
    with pytest.raises(IndexOutOfHorizon):
        ws.log_weight(65)
    with pytest.raises(IndexOutOfHorizon):
        ws.log_weight(-1)


def _brute_force_counting(ws, t):
    # direct sup of p log t - log M_p over the horizon
    logt = math.log(t)
    p = np.arange(ws.horizon + 1)
    return float(np.max(p * logt - ws.log_values))


def test_counting_function_matches_brute_force_on_gevrey():
    ws = gevrey(2.0, horizon=512)
    assoc = ws.associated()
    for t in np.geomspace(1e-3, assoc.max_argument * 0.9, 40):
        lhs = assoc.value(t)
        rhs = _brute_force_counting(ws, t)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_counting_function_vanishes_below_first_ratio():
    ws = gevrey(2.0, horizon=64)
    first_ratio = math.exp(ws.log_weight(1) - ws.log_weight(0))
    assoc = ws.associated()
    assert assoc.value(first_ratio * 0.5) == 0.0
    assert assoc.value(1e-12) == 0.0


def test_counting_function_raises_past_horizon_argument():
    ws = gevrey(1.0, horizon=64)
    assoc = ws.associated()
    with pytest.raises(HorizonExceeded):
        assoc.value(assoc.max_argument * 1.01)


def test_counting_function_requires_log_convexity():
    logs = np.array(gevrey(2.0, horizon=64).log_values)
    logs[10] -= 0.5  # dent one interior value; ratios stay divergent
    ws = from_table(logs)
    assert not is_log_convex(ws)
    with pytest.raises(RequiresLogConvexity):
        ws.associated()


def test_counting_function_vectorized_values():
    ws = q_gevrey(2.0, horizon=256)
    assoc = ws.associated()
    ts = np.geomspace(0.5, 100.0, 17)
    np.testing.assert_allclose(assoc.values(ts),
                               [assoc.value(float(t)) for t in ts])
    assert associated_function(ws, 10.0) == assoc.value(10.0)


def test_associated_function_call_is_its_value():
    assoc = gevrey(2.0, horizon=64).associated()
    for t in (0.0, 0.3, 1.0, 10.0, 50.0):
        assert assoc(t) == assoc.value(t)


def test_weight_sequence_repr_names_kind_params_and_horizon():
    assert repr(gevrey(2.0, horizon=64)) == (
        "WeightSequence(kind='gevrey', params={'alpha': 2.0}, horizon=64)")
    assert repr(q_gevrey(1.5, horizon=128)) == (
        "WeightSequence(kind='qgevrey', params={'q': 1.5}, horizon=128)")


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(min_value=0.5, max_value=4.0),
       t=st.floats(min_value=1e-6, max_value=1e3))
def test_counting_matches_brute_force_property(alpha, t):
    ws = gevrey(alpha, horizon=256)
    assoc = ws.associated()
    if t > assoc.max_argument:
        return
    assert assoc.value(t) == pytest.approx(_brute_force_counting(ws, t),
                                           rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=0.5, max_value=4.0))
def test_counting_is_monotone_in_argument(alpha):
    ws = gevrey(alpha, horizon=128)
    assoc = ws.associated()
    ts = np.geomspace(1e-4, assoc.max_argument * 0.99, 25)
    vals = assoc.values(ts)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all(vals >= 0.0)


def test_log_convexity_detects_gevrey_tables():
    assert is_log_convex(gevrey(1.0, horizon=128))
    assert is_log_convex(q_gevrey(1.5, horizon=128))
