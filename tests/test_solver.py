"""Finite moment problem solver: gating, residuals, reduction."""

import math
import re

import numpy as np
import pytest
from mpmath import mp

from gsmoment import (ConditionRefused, IllConditioned, InvalidParameter,
                      MomentSolution, SequenceTarget, TargetTooLarge,
                      from_table, gevrey, lambda_norm, membership_report,
                      q_gevrey, reduction_roundtrip, solve_moments,
                      unit_ball_target)
from gsmoment import solver

WS3 = gevrey(3.0, horizon=256)


def test_target_normalization_and_validation():
    t = SequenceTarget((1, 2.5, 1 + 2j))
    assert t.degree == 2
    assert t.entries[0] == (1 + 0j)
    assert not t.is_real
    assert SequenceTarget((1.0, 2.0)).is_real
    with pytest.raises(InvalidParameter):
        SequenceTarget(())
    with pytest.raises(InvalidParameter):
        SequenceTarget((float("nan"),))
    with pytest.raises(InvalidParameter):
        SequenceTarget((1.0,), h=0.0)
    back = SequenceTarget.from_dict(t.to_dict())
    assert back == t


def test_small_real_target_is_reproduced_exactly():
    target = SequenceTarget((1.0, 0.5, 2.0, 6.0))
    sol = solve_moments(target, WS3)
    assert isinstance(sol, MomentSolution)
    assert sol.degree == 3
    assert max(sol.residuals) < 1e-9
    for p, a_p in enumerate(target.entries):
        got = complex(sol.moment_closed(p))
        assert got == pytest.approx(a_p, rel=1e-20, abs=1e-20)


def test_independent_quadrature_confirms_moments():
    target = SequenceTarget((2.0, -1.0, 3.0))
    sol = solve_moments(target, WS3)
    for p, a_p in enumerate(target.entries):
        q = complex(sol.moment_quadrature(p))
        assert abs(q - a_p) / max(1.0, abs(a_p)) < 1e-8


def test_complex_target_solves():
    target = SequenceTarget((1.0, 1j, -2.0 + 0.5j))
    sol = solve_moments(target, WS3)
    assert max(sol.residuals) < 1e-9
    assert not sol.target.is_real
    val = sol.function(1.0)
    assert isinstance(val, complex)


def test_solution_function_lives_on_the_half_line():
    sol = solve_moments(SequenceTarget((1.0, 1.0)), WS3)
    phi = sol.function
    assert phi.support == "halfline"
    assert phi(-1.0) == 0.0
    assert np.isfinite(phi(0.5))


def test_gate_refuses_when_ratio_tail_condition_fails():
    ws = gevrey(1.5, horizon=256)
    with pytest.raises(ConditionRefused):
        solve_moments(SequenceTarget((1.0, 0.5)), ws)


def test_gate_override_solves_and_records():
    ws = gevrey(1.5, horizon=256)
    sol = solve_moments(SequenceTarget((1.0, 0.5)), ws, override_gamma2=True)
    assert sol.gate_verdict == "Fails"
    assert sol.gate_override is True
    assert max(sol.residuals) < 1e-9
    d = sol.to_dict()
    assert d["gate"]["override"] is True
    assert d["gate"]["verdict"] == "Fails"


def test_gate_passes_for_geometric_square_weights():
    ws = q_gevrey(2.0, horizon=256)
    sol = solve_moments(SequenceTarget((1.0, 2.0, 3.0)), ws)
    assert sol.gate_verdict == "Holds"
    assert max(sol.residuals) < 1e-9


def test_degree_cap_is_enforced():
    with pytest.raises(TargetTooLarge):
        solve_moments(SequenceTarget(tuple(range(1, 36))), WS3)


def test_minimum_precision_knob():
    target = SequenceTarget((1.0, 0.5))
    sol = solve_moments(target, WS3, min_bits=800)
    assert sol.precision_bits >= 800
    with pytest.raises(InvalidParameter):
        solve_moments(target, WS3, min_bits=32)


def _reset_bessel_sequence(monkeypatch):
    monkeypatch.setattr(solver, "_K2", [])
    monkeypatch.setattr(solver, "_K2_BITS", 0)


def test_gram_values_match_the_bessel_routine(monkeypatch):
    for bits in (200, 400):
        _reset_bessel_sequence(monkeypatch)
        rows = solver._gram_rows(13, bits)
        with mp.workprec(bits):
            for m in range(25):
                ref = 2 * mp.besselk(m + 1, 2)
                got = rows[max(0, m - 12)][min(m, 12)]
                assert abs(got - ref) <= mp.ldexp(ref, 4 - bits)
    _reset_bessel_sequence(monkeypatch)
    seeds = solver._bessel_k2(2, 800)
    with mp.workprec(800):
        for nu in (0, 1):
            ref = mp.besselk(nu, 2)
            assert abs(seeds[nu] - ref) <= mp.ldexp(ref, 4 - 800)


def test_cold_high_rungs_call_no_bessel_routine(monkeypatch):
    _reset_bessel_sequence(monkeypatch)

    def no_bessel(*args, **kwargs):
        raise AssertionError("Gram values called a Bessel routine")
    monkeypatch.setattr(mp, "besselk", no_bessel)
    target = SequenceTarget((1, 0.5 + 0.2j, 2, 6 + 1j, 24, 120 + 3j, 720,
                             5040 + 10j, 40320))
    sol = solve_moments(target, WS3, min_bits=1600)
    assert sol.precision_bits == 1600
    assert max(sol.residuals) < solver.DEFAULT_TOLERANCE


def test_coefficient_views_are_consistent():
    sol = solve_moments(SequenceTarget((1.0, 0.5, 2.0)), WS3)
    strings = sol.coefficients
    values = sol.coefficient_values
    assert len(strings) == len(values) == 3
    for s, v in zip(strings, values):
        assert complex(v) == pytest.approx(complex(float(s.split()[0])
                                                   if " " in s else
                                                   complex(s)), rel=1e-12)


def test_unit_ball_targets_are_deterministic_and_inside_the_ball():
    t1 = unit_ball_target(WS3, degree=6, scale=0.25, seed=11)
    t2 = unit_ball_target(WS3, degree=6, scale=0.25, seed=11)
    t3 = unit_ball_target(WS3, degree=6, scale=0.25, seed=12)
    assert t1.entries == t2.entries
    assert t1.entries != t3.entries
    assert t1.h == 0.25
    assert lambda_norm(t1, WS3) <= 1.0 + 1e-9


def test_lambda_norm_scales_with_entries():
    t = SequenceTarget((1.0, 0.0, 0.0))
    assert lambda_norm(t, WS3) == pytest.approx(1.0)
    t2 = SequenceTarget((2.0, 0.0))
    assert lambda_norm(t2, WS3) == pytest.approx(2.0)


def test_membership_profile_of_a_solution_is_finite():
    sol = solve_moments(SequenceTarget((1.0, 0.5, 2.0)), WS3)
    report = membership_report(sol.function, WS3)
    assert report["all_finite"] is True
    for cell in report["cells"]:
        assert cell["status"] == "Finite"
        assert math.isfinite(cell["log_value"])


def test_reduction_roundtrip_mixed_parity():
    target = SequenceTarget((1.0, 0.5, 2.0, -1.0, 4.0))
    red = reduction_roundtrip(target, WS3)
    assert max(red.residuals) < 1e-6
    assert red.even_solution.degree == 2
    assert red.odd_solution.degree == 1
    # symmetrized function evaluates on both sides of the origin
    assert np.isfinite(red.function(0.8))
    assert np.isfinite(red.function(-0.8))


def test_reduction_roundtrip_single_entry():
    red = reduction_roundtrip(SequenceTarget((3.0,)), WS3)
    assert max(red.residuals) < 1e-6


def test_reduction_respects_the_gate():
    ws = gevrey(1.5, horizon=256)
    with pytest.raises(ConditionRefused):
        reduction_roundtrip(SequenceTarget((1.0, 0.5)), ws)
    red = reduction_roundtrip(SequenceTarget((1.0, 0.5)), ws,
                              override_gamma2=True)
    assert max(red.residuals) < 1e-6


def test_high_precision_evaluation_matches_float_path():
    sol = solve_moments(SequenceTarget((1.0, 0.5, 2.0)), WS3)
    for x in (0.3, 1.0, 2.5):
        assert float(sol.eval_mp(x)) == pytest.approx(sol.function(x),
                                                      rel=1e-9)


def _count_eval_mp(monkeypatch):
    calls = [0]
    plain = MomentSolution.eval_mp

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return plain(self, *args, **kwargs)
    monkeypatch.setattr(MomentSolution, "eval_mp", counting)
    return calls


def test_verification_evaluates_phi_once_per_shared_node(monkeypatch):
    calls = _count_eval_mp(monkeypatch)
    target = unit_ball_target(WS3, 12, 0.25, seed=0)
    sol = solve_moments(target, WS3, tolerance=1e-6)
    assert calls[0] < 8000
    assert max(sol.residuals) < 1e-25
    made = calls[0]
    for p, a_p in enumerate(target.entries):
        q = complex(sol.moment_quadrature(p))
        assert abs(q - a_p) / max(1.0, abs(a_p)) < 1e-25
    assert calls[0] == made
    with pytest.raises(InvalidParameter):
        sol.moment_quadrature(13)


def test_unresolved_quadrature_is_refused(monkeypatch):
    monkeypatch.setattr(solver, "_MAX_LEVEL", 5)
    target = unit_ball_target(WS3, 12, 0.25, seed=0)
    with pytest.raises(IllConditioned) as info:
        solve_moments(target, WS3, tolerance=1e-6)
    msg = str(info.value)
    assert "level 5" in msg
    gap = float(re.search(r"by (\S+) relative", msg).group(1))
    assert gap > 1.0


def test_verifiers_call_no_bessel_routine(monkeypatch):
    # warm the Gram rows, which only size the quadrature precision
    solve_moments(SequenceTarget((1.0, 0.5, 2.0, 6.0)), WS3)
    reduction_roundtrip(SequenceTarget((1.0, 0.5, 2.0, -1.0, 4.0)), WS3)

    def no_bessel(*args, **kwargs):
        raise AssertionError("a verifier called a Bessel routine")
    monkeypatch.setattr(mp, "besselk", no_bessel)
    target = SequenceTarget((2.0, -1.0, 3.0, 1.0))
    fresh = solve_moments(target, WS3, verify=False)
    for p, a_p in enumerate(target.entries):
        q = complex(fresh.moment_quadrature(p))
        assert abs(q - a_p) / max(1.0, abs(a_p)) < 1e-20
    red = reduction_roundtrip(SequenceTarget((2.0, 0.5, -1.0, 1.0, 3.0)),
                              WS3)
    assert max(red.residuals) < 1e-20


def test_module_caches_stay_bounded():
    base = 3.0 * np.array([math.lgamma(p + 1) for p in range(65)])
    for i in range(100):
        ws = from_table(base + 1e-3 * i * np.arange(65))
        solve_moments(SequenceTarget((1.0,)), ws, override_gamma2=True,
                      verify=False)
        assert len(solver._GATE_CACHE) <= solver._CACHE_SIZE
    for dps in range(20, 20 * 15, 20):
        for level in (1, 2, 3):
            with mp.workdps(dps):
                solver._level_nodes(solver._HALF_LINE_POINTS, level, mp.prec)
        assert len(solver._NODE_CACHE) <= solver._CACHE_SIZE
