"""Condition checks: verdicts on known families and report coherence."""

import math

import numpy as np
import pytest

import gsmoment.conditions as conditions_module
from gsmoment import (FAILS, HOLDS, INCONCLUSIVE, ConditionReport,
                      InvalidParameter, check_condition, classify, from_table,
                      gevrey, is_log_convex, q_gevrey)
from gsmoment.conditions import three_horizons

HORIZON = 4096


def _verdicts(ws, conds):
    return {rep.condition: rep.verdict for rep in classify(ws, conds)}


# Verdicts below are the known answers for the two closed-form families:
# factorial powers satisfy the convexity and moderate-growth conditions and
# the ratio-tail condition at exponent r exactly when alpha > r, while the
# root/ratio separation family fails throughout.  The geometric-square
# family loses moderate growth but satisfies every ratio-tail and
# separation condition.

@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_factorial_power_verdicts(alpha):
    ws = gevrey(alpha, horizon=HORIZON)
    got = _verdicts(ws, ("lc", "dc", "mg", "gamma", "gamma1", "gamma2",
                         "beta2", "beta2_0", "beta2_1"))
    assert got["lc"] == HOLDS
    assert got["dc"] == HOLDS
    assert got["mg"] == HOLDS
    assert got["gamma"] == (HOLDS if alpha > 1 else FAILS)
    assert got["gamma1"] == (HOLDS if alpha > 1 else FAILS)
    assert got["gamma2"] == (HOLDS if alpha > 2 else FAILS)
    assert got["beta2"] == FAILS
    assert got["beta2_0"] == FAILS
    assert got["beta2_1"] == FAILS


@pytest.mark.parametrize("q", [1.5, 2.0])
def test_geometric_square_verdicts(q):
    ws = q_gevrey(q, horizon=HORIZON)
    got = _verdicts(ws, ("lc", "dc", "mg", "gamma", "gamma1", "gamma2",
                         "beta2", "beta2_0", "beta2_1"))
    assert got["lc"] == HOLDS
    assert got["dc"] == HOLDS
    assert got["mg"] == FAILS
    assert got["gamma"] == HOLDS
    assert got["gamma1"] == HOLDS
    assert got["gamma2"] == HOLDS
    assert got["beta2"] == HOLDS
    assert got["beta2_0"] == HOLDS
    assert got["beta2_1"] == HOLDS


def test_parametrized_ratio_tail_condition():
    assert check_condition(gevrey(3.0, horizon=HORIZON),
                           "gamma_r(2.5)").verdict == HOLDS
    assert check_condition(gevrey(2.0, horizon=HORIZON),
                           "gamma_r(2.5)").verdict == FAILS
    # parameter can also be passed separately
    rep = check_condition(gevrey(3.0, horizon=HORIZON), "gamma_r", r=2.5)
    assert rep.verdict == HOLDS
    assert rep.condition == "gamma_r(2.5)"


def test_condition_name_validation():
    ws = gevrey(2.0, horizon=128)
    with pytest.raises(InvalidParameter):
        check_condition(ws, "nonsense")
    with pytest.raises(InvalidParameter):
        check_condition(ws, "gamma_r(-1)")
    with pytest.raises(InvalidParameter):
        check_condition(ws, "gamma_r")
    with pytest.raises(InvalidParameter):
        check_condition(ws, "gamma_r(x)")
    with pytest.raises(InvalidParameter):
        check_condition(ws, "gamma_r", r=0)
    # an inline parameter wins over the keyword
    assert check_condition(ws, "gamma_r(3)", r=-1).condition == "gamma_r(3)"


def test_fixed_name_reports_are_memoised_on_the_sequence():
    ws = gevrey(2.0, horizon=256)
    assert check_condition(ws, "dc") is check_condition(ws, "dc")
    assert check_condition(gevrey(2.0, horizon=256), "dc") \
        is not check_condition(ws, "dc")
    # gamma_r names are unbounded, so their reports are not kept
    assert check_condition(ws, "gamma_r(2.5)") \
        is not check_condition(ws, "gamma_r(2.5)")


def test_three_horizons_are_quarter_half_full():
    assert three_horizons(4096) == (1024, 2048, 4096)
    assert three_horizons(100) == (25, 50, 100)


def test_reports_carry_witness_and_horizons():
    ws = gevrey(2.0, horizon=1024)
    rep = check_condition(ws, "gamma2")
    assert isinstance(rep, ConditionReport)
    assert rep.horizons == (256, 512, 1024)
    assert rep.witness  # some evidence trace is always attached
    d = rep.to_dict()
    assert d["condition"] == "gamma2"
    assert d["verdict"] in (HOLDS, FAILS, INCONCLUSIVE)


def test_implication_demotion_marks_contradiction_inconclusive(monkeypatch):
    # force a premise to hold while its consequence fails; the classifier
    # must refuse to report the contradictory failure as decisive
    real = conditions_module.check_condition

    def fake(ws, cond, r=None):
        rep = real(ws, cond, r)
        if cond == "gamma":
            return ConditionReport("gamma", FAILS, {"forced": True},
                                   rep.horizons)
        if cond == "gamma1":
            return ConditionReport("gamma1", HOLDS, {"forced": True},
                                   rep.horizons)
        return rep

    monkeypatch.setattr(conditions_module, "check_condition", fake)
    ws = gevrey(2.0, horizon=256)
    reports = {r.condition: r for r in classify(ws, ("gamma1", "gamma"))}
    assert reports["gamma1"].verdict == HOLDS
    assert reports["gamma"].verdict == INCONCLUSIVE
    assert "demoted" in reports["gamma"].witness["reason"]


def test_classifier_output_is_implication_coherent():
    # premise holding decisively never coexists with a decisive failure of
    # its consequence in the final report
    pairs = ((("mg",), "dc"), (("gamma1",), "gamma"),
             (("lc", "gamma2"), "gamma1"), (("beta2_0",), "beta2"),
             (("beta2",), "beta2_1"))
    for ws in (gevrey(1.5, horizon=HORIZON), q_gevrey(2.0, horizon=HORIZON)):
        reports = {r.condition: r for r in classify(ws)}
        for premises, conclusion in pairs:
            if all(reports[p].verdict == HOLDS for p in premises):
                assert reports[conclusion].verdict != FAILS


def test_short_noisy_table_can_be_inconclusive():
    # oscillating second differences with no clear trend
    rng = np.random.default_rng(7)
    ratios = np.cumsum(np.abs(rng.normal(1.0, 0.8, 96))) + 1.0
    logs = np.concatenate([[0.0], np.cumsum(ratios)])
    ws = from_table(logs)
    verdicts = {rep.verdict for rep in classify(ws)}
    assert INCONCLUSIVE in verdicts


def test_convexity_check_flags_dented_table():
    logs = np.array(gevrey(2.0, horizon=256).log_values)
    logs[40] -= 1.0
    assert check_condition(from_table(logs), "lc").verdict == FAILS


def test_rescaled_index_check_stops_at_the_first_diverging_rescale(
        monkeypatch):
    rescales = []
    trace = conditions_module._ratio_gap_trace

    def counted(ws, n, pmax):
        rescales.append(n)
        return trace(ws, n, pmax)
    monkeypatch.setattr(conditions_module, "_ratio_gap_trace", counted)
    rep = check_condition(q_gevrey(2.0, horizon=256), "beta2_0")
    assert rep.verdict == HOLDS and rep.witness["n"] == 2
    assert rescales == [2]


def _dented_gevrey2():
    logs = [2.0 * math.lgamma(p + 1) for p in range(129)]
    logs[40] += 0.5
    return from_table(logs)


@pytest.mark.parametrize("ws,convex", [(gevrey(2.0, horizon=128), True),
                                       (_dented_gevrey2(), False)],
                         ids=["middle-split", "brute-force"])
def test_mg_split_gaps_match_a_double_loop(ws, convex):
    assert is_log_convex(ws) is convex
    lv = ws.log_values
    ref = [max(lv[s] - lv[p] - lv[s - p] for p in range(1, s))
           for s in range(2, ws.horizon + 1)]
    np.testing.assert_allclose(conditions_module._mg_split_gaps(ws), ref,
                               rtol=0, atol=1e-10)
