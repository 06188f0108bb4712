"""Finite moment problem solver: gating, residuals, reduction."""

import ast
import math
import os
import re
from collections import OrderedDict

import numpy as np
import pytest
from mpmath import mp
from mpmath.calculus.quadrature import TanhSinh
from scipy.integrate import quad

from gsmoment import (ConditionRefused, IllConditioned, InvalidParameter,
                      MomentSolution, SequenceTarget, TargetTooLarge,
                      TestFunction, flat, gauss_poly, gevrey,
                      lambda_norm, log_seminorm, membership_report,
                      q_gevrey, reduction_roundtrip, solve_moments,
                      unit_ball_target)
from gsmoment import bessel, halfplane, solver
from gsmoment.atoms import default_grid

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


def test_precision_ladder_climbs_then_refuses(monkeypatch):
    target = unit_ball_target(WS3, 24, 1.0, 0)
    sol = solve_moments(target, WS3, verify=False)
    assert sol.precision_bits == 400  # 200 bits left residuals too large
    monkeypatch.setattr(solver, "PRECISION_LADDER", (200,))
    with pytest.raises(IllConditioned, match="at 200 bits"):
        solve_moments(target, WS3, verify=False)


def test_precision_above_the_cap_is_refused():
    with pytest.raises(InvalidParameter, match="above 8000 bits"):
        solve_moments(SequenceTarget((1.0,)), WS3, min_bits=8001)


@pytest.mark.parametrize("tolerance",
                         [math.nan, math.inf, 0.0, -1e-6, None, "tight"])
def test_tolerances_that_switch_the_checks_off_are_refused(tolerance):
    # a NaN tolerance passed every `residual > tolerance` test
    target = SequenceTarget((1.0, 0.5))
    for verify in (False, True):
        with pytest.raises(InvalidParameter, match="tolerance"):
            solve_moments(target, WS3, tolerance=tolerance, verify=verify)
    with pytest.raises(InvalidParameter, match="tolerance"):
        reduction_roundtrip(target, WS3, tolerance=tolerance)


@pytest.mark.parametrize("min_bits", [math.nan, math.inf, -math.inf, "many"])
def test_non_finite_precisions_are_refused(min_bits):
    with pytest.raises(InvalidParameter, match="finite number of bits"):
        solve_moments(SequenceTarget((1.0,)), WS3, min_bits=min_bits)


def _reset_bessel_sequence(monkeypatch):
    monkeypatch.setattr(bessel, "_K2", [])
    monkeypatch.setattr(bessel, "_K2_BITS", 0)
    monkeypatch.setattr(solver, "_GRAM_CACHE", OrderedDict())


def _one_call_lu_solve(target, bits):
    """The coefficients of mpmath's one-call LU solve of the Gram system
    at the given precision, from a freshly built matrix."""
    n = target.degree + 1
    h = solver._gram_rung(n, bits).values
    with mp.workprec(bits):
        G = mp.matrix(n, n)
        for p in range(n):
            for k in range(n):
                G[p, k] = h[p + k]
        rhs = mp.matrix([mp.mpc(v) if not target.is_real else mp.mpf(v.real)
                         for v in target.entries])
        return list(mp.lu_solve(G, rhs))


def _bits_of(values):
    return [getattr(v, "_mpf_", None) or v._mpc_ for v in values]


@pytest.mark.parametrize("min_bits", [None, 400])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("degree", [0, 3, 12])
def test_cached_factors_give_the_one_call_lu_coefficients(degree, real,
                                                          min_bits):
    target = unit_ball_target(WS3, degree, 1.0, seed=degree + 5)
    if real:
        target = SequenceTarget(tuple(v.real for v in target.entries),
                                h=target.h)
    for _ in range(2):  # cold or warm, then surely warm
        sol = solve_moments(target, WS3, verify=False, min_bits=min_bits)
        ref = _one_call_lu_solve(target, sol.precision_bits)
        assert _bits_of(sol._mp_coeffs) == _bits_of(ref)


def _lu_factors(n, bits):
    """mp.LU_decomp's factor matrix and pivots for the Gram matrix of the
    (n, bits) rung at the guarded precision, or None when singular."""
    h = solver._gram_rung(n, bits).values
    with mp.workprec(bits + solver._LU_GUARD):
        G = mp.matrix(n, n)
        for p in range(n):
            for k in range(n):
                G[p, k] = h[p + k]
        try:
            return mp.LU_decomp(G)
        except ZeroDivisionError:
            return None


def _mpmath_substitution(A, pivots, target, prec):
    with mp.workprec(prec):
        rhs = mp.matrix([mp.mpc(v) if not target.is_real else mp.mpf(v.real)
                         for v in target.entries])
        return list(mp.U_solve(A, mp.L_solve(A, rhs, pivots)))


@pytest.mark.parametrize("bits", [200, 400, 800])
@pytest.mark.parametrize("n", [1, 2, 5, 13, 33])
def test_substitution_on_stored_rows_is_mpmaths(n, bits):
    factors = _lu_factors(n, bits)
    rung = solver._gram_rung(n, bits)
    if factors is None:  # n = 33 at 200 bits
        assert rung.lu is None
        return
    A, pivots = factors
    rows, stored_pivots = rung.lu
    assert rows == tuple(tuple(A[p, k]._mpf_ for k in range(n))
                         for p in range(n))
    assert stored_pivots == tuple(pivots)
    prec = bits + solver._LU_GUARD
    ball = unit_ball_target(WS3, n - 1, 1.0, seed=n + bits)
    gapped = SequenceTarget((0j,) + ball.entries[1:], h=ball.h)
    for target in (ball, gapped, SequenceTarget(
            tuple(v.real for v in ball.entries), h=ball.h)):
        ref = _mpmath_substitution(A, pivots, target, prec)
        got = solver._solve_rung(rung.lu, target, prec)
        assert [type(v) for v in got] == [type(v) for v in ref]
        assert _bits_of(got) == _bits_of(ref)


def test_an_exact_zero_coefficient_keeps_mpmaths_type():
    # mpmath's matrices hold no zeros and read them back as mpf zero, so
    # an exactly zero complex coefficient comes back real
    A = mp.eye(2)
    lu = (tuple(tuple(A[p, k]._mpf_ for k in range(2)) for p in range(2)),
          (0,))
    target = SequenceTarget((0j, 2j))
    ref = _mpmath_substitution(A, [0], target, 210)
    got = solver._solve_rung(lu, target, 210)
    assert [type(v) for v in got] == [type(v) for v in ref] == [
        type(mp.zero), type(mp.mpc(1j))]
    assert _bits_of(got) == _bits_of(ref)


def test_no_solve_builds_an_mpmath_matrix(monkeypatch):
    target = unit_ball_target(WS3, 12, 0.25, seed=7)
    solve_moments(target, WS3, verify=False)  # factored, then warm
    for name in ("matrix", "L_solve", "U_solve", "lu_solve"):
        monkeypatch.setattr(mp, name, None)
    sol = solve_moments(unit_ball_target(WS3, 12, 0.25, seed=8), WS3,
                        verify=False)
    assert sol.degree == 12


def _count_lu_decomp(monkeypatch):
    calls = []
    plain = mp.LU_decomp

    def counting(*args, **kwargs):
        calls.append(mp.prec)
        return plain(*args, **kwargs)
    monkeypatch.setattr(mp, "LU_decomp", counting)
    return calls


def test_a_warm_solve_factors_nothing(monkeypatch):
    monkeypatch.setattr(solver, "_GRAM_CACHE", OrderedDict())
    calls = _count_lu_decomp(monkeypatch)
    target = unit_ball_target(WS3, 12, 0.25, seed=3)
    first = solve_moments(target, WS3, verify=False)
    # the solve rung is factored at the guarded precision, the residual
    # rung at twice the bits only read
    assert calls == [first.precision_bits + solver._LU_GUARD]
    del calls[:]
    second = solve_moments(unit_ball_target(WS3, 12, 0.25, seed=4), WS3,
                           verify=False)
    assert second.precision_bits == first.precision_bits
    assert calls == []


def test_a_singular_rung_is_skipped(monkeypatch):
    monkeypatch.setattr(solver, "_GRAM_CACHE", OrderedDict())
    plain = mp.LU_decomp

    def singular_at_200(*args, **kwargs):
        if mp.prec == 200 + solver._LU_GUARD:
            raise ZeroDivisionError("matrix is numerically singular")
        return plain(*args, **kwargs)
    monkeypatch.setattr(mp, "LU_decomp", singular_at_200)
    target = SequenceTarget((1.0, 0.5, 2.0, 6.0))
    sol = solve_moments(target, WS3)
    assert sol.precision_bits == 400
    assert solver._gram_rung(4, 200).lu is None
    # the refusal is kept: a warm solve skips the rung without refactoring
    monkeypatch.setattr(mp, "LU_decomp", None)
    assert solve_moments(target, WS3).precision_bits == 400
    monkeypatch.setattr(solver, "PRECISION_LADDER", (200,))
    with pytest.raises(IllConditioned, match="at 200 bits"):
        solve_moments(target, WS3)


def test_gram_values_match_the_bessel_routine(monkeypatch):
    for bits in (200, 400):
        _reset_bessel_sequence(monkeypatch)
        h = solver._gram_rung(13, bits).values
        assert len(h) == 25
        with mp.workprec(bits):
            for m in range(25):
                ref = 2 * mp.besselk(m + 1, 2)
                assert abs(h[m] - ref) <= mp.ldexp(ref, 4 - bits)
    _reset_bessel_sequence(monkeypatch)
    seeds = bessel.k2_sequence(2, 800)
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


def _ball12_function():
    """The degree-12 seed-0 unit-ball solution on gevrey(3)."""
    target = unit_ball_target(WS3, 12, 0.25, seed=0)
    return solve_moments(target, WS3, verify=False).function


def _count_log_rows(monkeypatch):
    calls = [0]
    orig = TestFunction.log_abs_derivative

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(TestFunction, "log_abs_derivative", counting)
    return calls


def test_membership_report_builds_each_derivative_row_once(monkeypatch):
    ball = _ball12_function()
    calls = _count_log_rows(monkeypatch)
    report = membership_report(ball, WS3)
    # the three scales share one grid on gevrey(3): 9 rows for orders
    # 0..8, then one row per distinct argmax order in each of the two
    # refinement passes, over every cell's window at once; one
    # log_seminorm per cell makes 54 + 24 = 78
    orders = {cell["argmax_order"] for cell in report["cells"]}
    assert orders == {0, 2, 4, 8}
    assert calls[0] == 9 + 2 * 4
    # a second report recomputes every row it reads: none survives a call
    calls[0] = 0
    report = membership_report(flat(0), WS3)
    assert calls[0] == 9 + 2 * len({cell["argmax_order"]
                                    for cell in report["cells"]})
    calls[0] = 0
    membership_report(ball, WS3)
    assert calls[0] == 17


def _reference_log_derivative(phi, x, m):
    """log|phi^(m)(x)| at 60 digits, from exact integer derivative chains
    of each atom: d/dy (p(y) E(y)) = (p' + p E'/E) E, E'/E = y^-2 - 1 for
    flat atoms and -2y for Gaussian ones."""
    with mp.workdps(60):
        total = mp.mpc(0)
        for atom, coeff in phi.atoms:
            y = -mp.mpf(x) if atom.reflected else mp.mpf(x)
            if atom.kind == "flat_halfline" and y <= 0:
                continue
            poly = {atom.k: 1}
            for _ in range(m):
                nxt = {}
                for j, c in poly.items():
                    if j:
                        nxt[j - 1] = nxt.get(j - 1, 0) + j * c
                    if atom.kind == "flat_halfline":
                        nxt[j - 2] = nxt.get(j - 2, 0) + c
                        nxt[j] = nxt.get(j, 0) - c
                    else:
                        nxt[j + 1] = nxt.get(j + 1, 0) - 2 * c
                poly = nxt
            env = (mp.exp(-1 / y - y) if atom.kind == "flat_halfline"
                   else mp.exp(-y * y))
            value = sum(c * y ** j for j, c in poly.items()) * env
            if atom.reflected and m % 2:
                value = -value
            total += mp.mpc(coeff.real, coeff.imag) * value
        return float(mp.log(abs(total)))


def test_cancelling_ball_solution_matches_a_60_digit_reference():
    # the ball solution's 13 flat atoms have coefficients up to ~1e26,
    # far above the values they sum to; near each cell's argmax
    # log|phi^(m)| must still agree with exact chains summed at 60 digits
    ball = _ball12_function()
    assert max(abs(c) for _, c in ball.atoms) > 1e20
    report = membership_report(ball, WS3)
    points = {(cell["argmax_x"], cell["argmax_order"])
              for cell in report["cells"]}
    assert len(points) > 3
    for x0, m in points:
        for x in (0.99 * x0, x0, 1.01 * x0):
            ref = _reference_log_derivative(ball, x, m)
            assert ball.log_abs_derivative(x, m) == pytest.approx(
                ref, rel=0.0, abs=1e-10), (x, m)


def test_membership_report_refuses_bad_scales_and_caps():
    phi = flat(0)
    for kwargs in ({"scales": (math.inf,)}, {"scales": (math.nan,)},
                   {"scales": (0.0,)}, {"order_caps": (0, -1)},
                   {"order_caps": (2.0,)}):
        with pytest.raises(InvalidParameter):
            membership_report(phi, WS3, **kwargs)


WS1 = gevrey(1.0, horizon=256)


@pytest.mark.parametrize("case", ["ball", "whole-line", "flat-mix"])
def test_membership_cells_equal_a_fresh_log_seminorm(case):
    if case == "ball":
        phi, ws = _ball12_function(), WS3
    elif case == "whole-line":
        reflected = TestFunction([("flat_halfline", 1, 0.5, 0.0, True)])
        phi, ws = gauss_poly(2) + reflected, WS3
    else:
        phi = TestFunction([("flat_halfline", 0, 1.0),
                            ("flat_halfline", 2, -0.5j),
                            ("flat_halfline", -1, 2.0)])
        ws = WS1
        # grid uppers 1024 / 256 / 64: no row is shared across scales
        uppers = [default_grid(ws, h)[-1] for h in (0.25, 1.0, 4.0)]
        assert len(set(uppers)) == 3
    report = membership_report(phi, ws)
    assert len(report["cells"]) == 12
    for cell in report["cells"]:
        logv, where = log_seminorm(phi, cell["order_cap"], cell["scale"], ws)
        assert cell["log_value"] == logv
        assert cell["argmax_x"] == where["argmax_x"]
        assert cell["argmax_order"] == where["argmax_m"]


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
    for sol in (red.even_solution, red.odd_solution):
        assert sol.gate_verdict == "Fails"
        assert sol.gate_override is True


@pytest.mark.parametrize("entries", [(1.0, 0.5, 2.0, -1.0, 4.0),
                                     (2.0, 0.5, -1.0, 1.0, 3.0)])
def test_reduction_function_has_the_target_moments(entries):
    # the whole-line moments of the function the reduction returns,
    # by scipy's adaptive quadrature, which shares no code with the solver
    red = reduction_roundtrip(SequenceTarget(entries), WS3)
    assert max(red.residuals) < 1e-25
    breaks = (-np.inf, 0.0, 1.0, np.inf)
    for p, a_p in enumerate(entries):
        mu = sum(quad(lambda x: x ** p * red.function(x), a, b,
                      epsrel=1e-12)[0]
                 for a, b in zip(breaks, breaks[1:]))
        assert abs(mu - a_p) / max(1.0, abs(a_p)) < 1e-9


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


def test_warm_verification_evaluates_no_phi(monkeypatch):
    solve_moments(unit_ball_target(WS3, 12, 0.25, seed=1), WS3)
    calls = _count_eval_mp(monkeypatch)
    exps = [0]
    plain_exp = mp.exp

    def counting_exp(*args, **kwargs):
        exps[0] += 1
        return plain_exp(*args, **kwargs)
    monkeypatch.setattr(mp, "exp", counting_exp)
    sol = solve_moments(unit_ball_target(WS3, 12, 0.25, seed=2), WS3)
    assert max(sol.residuals) < 1e-25
    assert calls[0] == 0
    assert exps[0] == 0


def _direct_pass(sol):
    """The verifier's sums by a different rule: phi(t) t^j accumulated
    at every tanh-sinh node (Takahasi-Mori, mpmath's nodes) of the half
    line split at 1, 5, 25 and 90, level by level at the same precision,
    with the same stop rule."""
    n = sol.degree + 1
    dps = max(sol._headroom_dps())
    scales = [max(1.0, abs(a)) for a in sol.target.entries]
    points = (0, 1, 5, 25, 90, mp.inf)
    rule = TanhSinh(mp)
    with mp.workdps(solver._DPS_GRID * -(-dps // solver._DPS_GRID)):
        raw = [mp.zero] * n
        last = None
        for level in range(1, solver._MAX_LEVEL + 1):
            for a, b in zip(points, points[1:]):
                for t, w in rule.get_nodes(a, b, level, mp.prec):
                    v = w * sol.eval_mp(t)
                    for j in range(n):
                        raw[j] += v
                        v *= t
            sums = [mp.ldexp(1, -level) * r for r in raw]
            if last is not None and max(
                    float(abs(s - q)) / c
                    for s, q, c in zip(sums, last, scales)) \
                    <= sol.tolerance * 1e-6:
                return sums
            last = sums
    raise AssertionError("direct pass unresolved")


def _assert_sums_agree(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert float(abs(g - r)) <= 1e-30 * max(1.0, float(abs(r)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hankel_sums_match_a_direct_pass(seed):
    sol = solve_moments(unit_ball_target(WS3, 12, 0.25, seed=seed), WS3)
    ref = _direct_pass(sol)
    _assert_sums_agree([sol.moment_quadrature(p) for p in range(13)], ref)


def test_unresolved_quadrature_is_refused(monkeypatch):
    monkeypatch.setattr(solver, "_MAX_LEVEL", 4)
    target = unit_ball_target(WS3, 12, 0.25, seed=0)
    with pytest.raises(IllConditioned) as info:
        solve_moments(target, WS3, tolerance=1e-6)
    msg = str(info.value)
    assert "level 4" in msg
    gap = float(re.search(r"by (\S+) relative", msg).group(1))
    assert gap > 1.0


@pytest.mark.parametrize("cap", [0, 1, 2])
def test_a_level_cap_that_compares_no_two_levels_is_refused(monkeypatch,
                                                           cap):
    # the refusal must not read the gap of a comparison never made
    monkeypatch.setattr(solver, "_MAX_LEVEL", cap)
    target = unit_ball_target(WS3, 12, 0.25, seed=0)
    with pytest.raises(IllConditioned, match="no two trapezoid levels"):
        solve_moments(target, WS3, tolerance=1e-6)


def test_the_pass_records_its_level_and_gap():
    target = unit_ball_target(WS3, 12, 0.25, seed=0)
    sol = solve_moments(target, WS3, verify=False)
    assert sol.quadrature_level is None and sol.quadrature_gap is None
    sol.moment_quadrature(0)
    assert sol.quadrature_level == 5
    assert 0.0 <= sol.quadrature_gap <= sol.tolerance * 1e-6
    verified = solve_moments(target, WS3)
    assert (verified.quadrature_level, verified.quadrature_gap) == (
        sol.quadrature_level, sol.quadrature_gap)
    assert not any("quadrature" in key for key in verified.to_dict())


def _sweep_solution(degree, real, min_bits):
    target = unit_ball_target(WS3, degree, 0.25, seed=degree + 11)
    if real:
        target = SequenceTarget(tuple(v.real for v in target.entries),
                                h=target.h)
    return solve_moments(target, WS3, min_bits=min_bits)


SWEEP = pytest.mark.parametrize(
    "degree, real, min_bits",
    [(d, r, None) for d in (0, 1, 4, 12, 24, 32) for r in (False, True)]
    + [(d, r, 800) for d in (1, 12) for r in (False, True)])


@SWEEP
def test_integer_window_sums_are_the_fdot_sums(degree, real, min_bits):
    sol = _sweep_solution(degree, real, min_bits)
    n = degree + 1
    coeffs = sol._mp_coeffs
    dps = max(sol._headroom_dps())
    with mp.workdps(solver._DPS_GRID * -(-dps // solver._DPS_GRID)):
        moments = [mp.zero] * (2 * n - 1)  # the mpf rule's running sums
        for level in range(sol.quadrature_level + 1):
            row = solver._hankel_table(level, 2 * n - 1)
            moments = [q + r for q, r in zip(moments, row)]
            if level < solver._FIRST_LEVEL:
                continue
            step = mp.ldexp(1, -level)
            ref = [step * mp.fdot(coeffs, moments[j:j + n])
                   for j in range(n)]
            got = solver._window_sums(
                sol._fixed, solver._cumulative_table(level, 2 * n - 1),
                range(n), -level)
            assert _bits_of(got) == _bits_of(ref)
    assert _bits_of(sol.moment_quadrature(p) for p in range(n)) \
        == _bits_of(got)
    # the doubled-precision residual sums, then the closed-form moments
    for bits in (2 * sol.precision_bits, sol.precision_bits):
        h = solver._gram_rung(n, bits).values
        with mp.workprec(bits):
            ref = [mp.fdot(coeffs, h[p:p + n]) for p in range(n)]
            got = solver._window_sums(
                sol._fixed, solver._gram_rung(n, bits).fixed, range(n))
        assert _bits_of(got) == _bits_of(ref)
    assert _bits_of(sol.moment_closed(p) for p in range(n)) == _bits_of(ref)


@SWEEP
def test_residual_checks_decide_as_the_mpmath_rules(degree, real, min_bits):
    # the 2x-bits check, decided on exact integers, against the mpmath
    # rule on every rung up to the one accepted; the reported residuals
    # and the pass's gap against the mpmath arithmetic they replace
    sol = _sweep_solution(degree, real, min_bits)
    target, n = sol.target, degree + 1
    slack = sol.tolerance * 1e-3
    for bits in solver.PRECISION_LADDER:
        if bits > sol.precision_bits or (min_bits and bits < min_bits):
            continue
        lu = solver._gram_rung(n, bits).lu
        if lu is None:  # singular at this precision, skipped by the solver
            continue
        c = solver._solve_rung(lu, target, bits + solver._LU_GUARD)
        with mp.workprec(2 * bits):
            sums = solver._window_sums(solver._as_fixed_coefficients(c),
                                       solver._gram_rung(n, 2 * bits).fixed,
                                       range(n))
            want = all(abs(s - mp.mpc(a)) / max(1.0, abs(a)) <= slack
                       for s, a in zip(sums, target.entries))
        assert want == (bits == sol.precision_bits)
        dots, exp = solver._window_dots(solver._as_fixed_coefficients(c),
                                        solver._gram_rung(n, 2 * bits).fixed,
                                        range(n))
        assert all(solver._within(d, exp, a, slack)
                   for d, a in zip(dots, target.entries)) == want
    with mp.workdps(40):
        want = [float(abs(sol.moment_quadrature(p) - mp.mpc(a)))
                / max(1.0, abs(a)) for p, a in enumerate(target.entries)]
    assert [r.hex() for r in sol.residuals] == [r.hex() for r in want]
    dps = max(sol._headroom_dps())
    scales = [max(1.0, abs(a)) for a in target.entries]
    with mp.workdps(solver._DPS_GRID * -(-dps // solver._DPS_GRID)):
        last, level = [
            solver._window_sums(sol._fixed, solver._cumulative_table(
                level, 2 * n - 1), range(n), -level)
            for level in (sol.quadrature_level - 1, sol.quadrature_level)]
        gap = max(abs(complex(s - q)) / c
                  for s, q, c in zip(level, last, scales))
    assert gap.hex() == sol.quadrature_gap.hex()


def test_the_exact_check_meets_its_bound_inclusively():
    # |S - a| against tol * max(1, |a|), with S = (re + i im) 2^exp
    assert solver._within((3, 4), 0, 0j, 5.0)
    assert not solver._within((3, 4), 0, 0j, math.nextafter(5.0, 0.0))
    # a = 8: the bound is tol * 8, and S - a = 2^-60 sits right on it
    tol = 2.0 ** -63
    assert solver._within(((8 << 60) + 1, 0), -60, 8 + 0j, tol)
    assert not solver._within(((8 << 60) + 2, 0), -60, 8 + 0j, tol)
    assert solver._within((-(1 << 70), 0), -70, -1 + 0.5j, 0.5)


def test_a_warm_verified_solve_builds_no_mpc(monkeypatch):
    # the residual check, the trapezoid levels and the reported residuals
    # work on raw libmp values: no mp.mpc is built
    target = unit_ball_target(WS3, 12, 0.25, seed=4)
    solve_moments(target, WS3)

    class Refused(mp.mpc):
        # mp.make_mpc builds its values without calling the class
        def __new__(cls, *args, **kwargs):
            raise AssertionError("mp.mpc called")
    monkeypatch.setattr(mp, "mpc", Refused)
    sol = solve_moments(unit_ball_target(WS3, 12, 0.25, seed=5), WS3)
    assert max(sol.residuals) < 1e-25
    assert sol.quadrature_level is not None


def _mpmath_headroom(sol):
    """The headroom digits by the mpmath rule: log10 values at the solve
    precision, added and compared in mpf."""
    bits = sol.precision_bits
    with mp.workprec(bits):
        logv = [mp.log(v, 10)
                for v in solver._gram_rung(sol.degree + 1, bits).values]
        logc = [(k, mp.log(abs(c), 10))
                for k, c in enumerate(sol._mp_coeffs) if c != 0]
        out = []
        for p, a_p in enumerate(sol.target.entries):
            top = max(lc + logv[p + k] for k, lc in logc)
            extra = float(top - mp.log(max(1.0, abs(a_p)), 10))
            out.append(30 + max(0, int(math.ceil(extra))))
    return tuple(out)


@SWEEP
def test_float_headroom_is_the_mpmath_rule(degree, real, min_bits):
    sol = _sweep_solution(degree, real, min_bits)
    assert sol._headroom_dps() == _mpmath_headroom(sol)


def test_warm_verification_calls_no_fdot(monkeypatch):
    solve_moments(unit_ball_target(WS3, 12, 0.25, seed=1), WS3)
    calls = [0]
    plain = mp.fdot

    def counting(*args, **kwargs):
        calls[0] += 1
        return plain(*args, **kwargs)
    monkeypatch.setattr(mp, "fdot", counting)
    sol = solve_moments(unit_ball_target(WS3, 12, 0.25, seed=2), WS3)
    assert max(sol.residuals) < 1e-25
    sol.moment_closed(3)
    assert calls[0] == 0


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


def test_verifiers_call_no_half_plane_k_routine(monkeypatch):
    # the half-plane K runs, their CF2 seeds and mpmath's besselk all
    # raise: the quadrature checks share no code with the closed forms
    def no_bessel(*args, **kwargs):
        raise AssertionError("a verifier called a Bessel routine")
    monkeypatch.setattr(mp, "besselk", no_bessel)
    monkeypatch.setattr(bessel, "k_run", no_bessel)
    monkeypatch.setattr(bessel, "_k01_cf2", no_bessel)
    monkeypatch.setattr(halfplane, "k_run", no_bessel)
    target = SequenceTarget((2.0, -1.0, 3.0, 1.0))
    fresh = solve_moments(target, WS3, verify=False)
    for p, a_p in enumerate(target.entries):
        q = complex(fresh.moment_quadrature(p))
        assert abs(q - a_p) / max(1.0, abs(a_p)) < 1e-20
    red = reduction_roundtrip(SequenceTarget((2.0, 0.5, -1.0, 1.0, 3.0)),
                              WS3)
    assert max(red.residuals) < 1e-20


def test_benchmark_reference_imports_nothing_from_the_package():
    # perfbench/refs.py checks every half-plane value with its own
    # mp.besselk sum, so it must not reach the package's K routines
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "refs.py")
    with open(path) as handle:
        tree = ast.parse(handle.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
    assert names
    assert not any(n.split(".")[0] == "gsmoment" for n in names)


def test_module_caches_stay_bounded(monkeypatch):
    for dps in range(20, 20 * 15, 20):
        for level in (0, 1, 2):
            with mp.workdps(dps):
                man, exp = solver._cumulative_table(level, 3)
                key = (level, mp.prec, 3)
            # one entry: the count mantissas at one exponent
            assert len(man) == 3
            assert all(type(m) is int for m in man) and type(exp) is int
        assert len(solver._HANKEL_CACHE) <= solver._CACHE_SIZE
    assert list(solver._HANKEL_CACHE)[-1] == key
    monkeypatch.setattr(solver, "_GRAM_CACHE", OrderedDict())
    for n in range(1, 3 * solver._GRAM_CACHE_SIZE):
        solve_moments(SequenceTarget((1.0,) * n), WS3, verify=False)
        assert len(solver._GRAM_CACHE) <= solver._GRAM_CACHE_SIZE
    # least recently used first out: the last solve's two rungs are kept
    assert list(solver._GRAM_CACHE)[-2:] == [(n, 200), (n, 400)]


@pytest.mark.parametrize("dps", [60, 200])
@pytest.mark.parametrize("degree", [2, 24])
def test_trapezoid_tables_converge_to_the_gram_values(dps, degree):
    # the verifier's cumulative sums times the step tend to
    # 2 K_{m+1}(2); the test may read both, the solver never does
    count = 2 * degree + 1
    with mp.workdps(dps):
        gram = solver._gram_rung(degree + 1, mp.prec).values
        bound = mp.ldexp(1, 10 - mp.prec)
        sums = [mp.zero] * count
        for level in range(solver._MAX_LEVEL + 1):
            row = solver._hankel_table(level, count)
            sums = [q + r for q, r in zip(sums, row)]
            # the cached integer table holds exactly these mpf sums
            man, exp = solver._cumulative_table(level, count)
            assert [mp.mpf((m, exp)) for m in man] == sums
            if all(abs(mp.ldexp(q, -level) - g) <= bound * g
                   for q, g in zip(sums, gram)):
                return
    raise AssertionError("trapezoid sums never met the Gram values")
