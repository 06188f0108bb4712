"""Half-plane transforms: evaluation, boundary values, prescribed jets."""

import cmath
import math
import os
import random
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest

import gsmoment
from gsmoment import (HalfPlaneFunction, InvalidParameter, SequenceTarget,
                      UnsupportedSupport, borel_ritt_solve, flat, gauss_poly,
                      gevrey, holomorphy_residual, reflect, solve_moments,
                      uhf_norm, unit_ball_target)

# 25-digit reference: integral of exp(-1/t - 2t) dt = sqrt(2) K_1(2 sqrt 2)
VALUE_AT_I = 0.06983373700764657142875981

WS3 = gevrey(3.0, horizon=256)


def _closed_form(z, k=0, p=0):
    # transform of (it)^p t^k exp(-1/t - t): 2 i^p beta^(-nu/2) K_nu(2 sqrt beta)
    nu = k + p + 1
    with mp.workdps(30):
        beta = mp.mpc(1.0) - 1j * mp.mpc(z)
        return complex(2 * mp.mpc(0, 1) ** p * beta ** (-mp.mpf(nu) / 2)
                       * mp.besselk(nu, 2 * mp.sqrt(beta)))


def _quad_transform(phi_mp, z, p, dps):
    # independent reference: tanh-sinh quadrature of (it)^p phi(t) e^{itz}
    with mp.workdps(dps):
        zm = mp.mpc(z)

        def integrand(t):
            if t <= 0:
                return mp.mpf(0)
            return (1j * t) ** p * phi_mp(t) * mp.exp(1j * t * zm)
        return complex(mp.quad(integrand, [0, 1, 5, 25, 90, mp.inf]))


def test_value_on_the_imaginary_axis_matches_reference():
    f = HalfPlaneFunction(flat(0))
    assert f.eval_derivative(1j) == pytest.approx(VALUE_AT_I, rel=1e-12)


@pytest.mark.parametrize("z", [0.5 + 1j, 3 + 0.2j, 30 + 1j, -12 + 0.05j,
                               2 + 40j])
def test_evaluation_matches_bessel_closed_form(z):
    f = HalfPlaneFunction(flat(0))
    ref = _closed_form(z)
    assert f.eval_derivative(z) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("k, z, p", [(4, -19.895 + 0.7607j, 7),
                                     (2, 7 + 0.3j, 8)])
def test_oscillatory_high_order_values_match_closed_form(k, z, p):
    # small Im z with large |Re z| and order: a Fourier-weight quadrature
    # was off by a relative 5.0 and 2.8e-3 here
    f = HalfPlaneFunction(flat(k))
    assert f.eval_derivative(z, p) == pytest.approx(_closed_form(z, k, p),
                                                    rel=1e-10)


def test_high_precision_evaluation_agrees_with_float_path():
    f = HalfPlaneFunction(flat(0) + 0.5 * flat(1))
    phi = lambda t: (1 + 0.5 * t) * mp.exp(-t - 1 / t)
    for z in (2 + 0.5j, 0.1 + 3j):
        ref = _quad_transform(phi, z, 1, 30)
        assert f.eval_derivative(z, 1) == pytest.approx(ref, rel=1e-12)
        assert complex(f.eval_mp(z, 1)) == pytest.approx(ref, rel=1e-12)


def test_solution_backed_values_survive_cancellation_near_the_boundary():
    # the terms reach ~1e23 and cancel to O(1) near z = 0; the float view
    # of the coefficients lost the value by a relative 5e11 at z = 0.01i
    sol = solve_moments(unit_ball_target(WS3, 12, 0.25, seed=0), WS3,
                        verify=False)
    f = HalfPlaneFunction(sol)
    top = max(abs(c) for c in sol.coefficient_values)
    dps = 30 + max(0, math.ceil(math.log10(top)))
    for z in (0.01j, 0.05 + 0.05j, 0.1j):
        ref = _quad_transform(sol.eval_mp, z, 0, dps)
        assert f.eval_derivative(z) == pytest.approx(ref, rel=1e-10)


def _halfplane_source():
    # the benchmark's fixed degree-12 half-plane source: a_p = u_p (p!)^3
    # / h^p at h = 0.25, u_p uniform in the unit disk, drawn in that order
    # from the Python stream "0/halfplane-source"
    rng = random.Random("0/halfplane-source")
    entries = []
    for p in range(13):
        u = math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        entries.append(u * math.exp(3.0 * math.lgamma(p + 1)
                                    - p * math.log(0.25)))
    target = SequenceTarget(tuple(entries), h=0.25)
    return solve_moments(target, WS3, verify=False)


def test_slow_band_value_is_fast_and_right():
    # w = 2 sqrt(1 - iz) has |w| ~ 20 here, where mpmath's besselk falls
    # back to cancelling 1F1 sums and took ~0.3 s per evaluation
    sol = _halfplane_source()
    f = HalfPlaneFunction(sol)
    z, p = 0.3 + 100j, 3
    f.eval_derivative(z, p)
    start = time.perf_counter()
    value = f.eval_derivative(z, p)
    elapsed = time.perf_counter() - start
    top = max(abs(c) for c in sol.coefficient_values)
    ref = _quad_transform(sol.eval_mp, z, p,
                          30 + max(0, math.ceil(math.log10(top))))
    assert value == pytest.approx(ref, rel=1e-12)
    assert complex(f.eval_mp(z, p, dps=30)) == pytest.approx(ref, rel=1e-12)
    assert elapsed < 0.1


def test_norm_is_the_maximum_over_orders_and_points():
    rng = random.Random("uhf-norm-jet")
    jet = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(9)]
    radii, angles, p_cap = (0.05, 1.0, 8.0, 50.0, 400.0), 4, 4
    points = [r * cmath.exp(1j * math.pi * (j + 0.5) / angles)
              for r in radii for j in range(angles)]
    for f in (HalfPlaneFunction(flat(0)), borel_ritt_solve(jet, WS3).function):
        moduli = [[abs(f.eval_derivative(z, p)) for z in points]
                  for p in range(p_cap + 1)]
        for h in (0.5, 2.0):
            want = max(h ** p * v / math.exp(float(WS3.log_weight(p)))
                       for p, row in enumerate(moduli) for v in row)
            got = uhf_norm(f, WS3, h, p_cap=p_cap, radii=radii,
                           angles=angles)
            assert got == pytest.approx(want, rel=1e-12)


_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
import gsmoment.cli
gevrey = '{"kind":"gevrey","params":{"alpha":3.0}}'
flat = '{"atoms":[["flat_halfline",0,1.0,0.0],["flat_halfline",1,0.5,0.0]]}'
runs = [["classify", "--weight", gevrey, "--horizon", "512"],
        ["solve", "--weight", gevrey, "--horizon", "256",
         "--target", "[1.0, 0.5, 2.0]"],
        ["moments", "--function", flat, "--max-order", "4",
         "--apply", "square_sub"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [gsmoment.cli.main(argv) for argv in runs]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_import_leaves_quadrature_unloaded():
    # every K value is a closed form or an mpmath recurrence and lgamma
    # is the standard library's or Stirling's, so neither importing the
    # package nor running the CLI loads any part of scipy
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(gsmoment.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[0, 0, 0] []"


def test_boundary_derivatives_are_twisted_moments():
    phi = flat(1)
    f = HalfPlaneFunction(phi)
    for p in range(6):
        expected = (1j ** p) * phi.moment(p)
        assert f.boundary_derivative(p) == pytest.approx(expected, rel=1e-14)


def test_boundary_extrapolation_confirms_closed_values():
    f = HalfPlaneFunction(flat(0))
    for p in (0, 1, 3):
        out = f.boundary_borel(p)
        assert out["relative_gap"] < 1e-5
        assert out["extrapolated"] == pytest.approx(out["closed_form"],
                                                    rel=1e-4, abs=1e-8)


def test_stencil_residual_detects_holomorphy():
    f = HalfPlaneFunction(flat(0))
    for z in (1 + 1j, 0.5 + 2j):
        assert abs(holomorphy_residual(f, z)) < 1e-8


def test_norm_profile_grows_with_scale():
    f = HalfPlaneFunction(flat(0))
    radii = np.geomspace(0.1, 10.0, 4)
    lo = uhf_norm(f, WS3, 0.5, p_cap=4, radii=radii, angles=8)
    hi = uhf_norm(f, WS3, 2.0, p_cap=4, radii=radii, angles=8)
    assert lo <= hi + 1e-12


def test_domain_validation():
    f = HalfPlaneFunction(flat(0))
    for z in (1j, 0.3 + 0.1j, -2.0 + 4.0j, 0.0):
        assert f(z) == f.eval_derivative(z, 0)
    with pytest.raises(InvalidParameter):
        f.eval_derivative(1 - 1j)
    with pytest.raises(InvalidParameter):
        f.eval_derivative(1j, p=-1)
    with pytest.raises(InvalidParameter):
        f.eval_derivative(1j, p=33)


@pytest.mark.parametrize("method", ["eval_derivative", "eval_mp"])
@pytest.mark.parametrize("z, p", [
    (complex(0.0, math.inf), 0), (complex(math.nan, 1.0), 0),
    (complex(math.inf, 1.0), 1), (1 - 1j, 0),
    (1j, -1), (1j, 1.5), (1j, 33)])
def test_both_evaluators_refuse_the_same_arguments(method, z, p):
    f = HalfPlaneFunction(flat(0))
    with pytest.raises(InvalidParameter):
        getattr(f, method)(z, p)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1e-5])
def test_borel_ritt_refuses_tolerances_that_switch_the_check_off(tolerance):
    # a NaN tolerance passed the `worst > tolerance` jet check
    with pytest.raises(InvalidParameter, match="tolerance"):
        borel_ritt_solve((1.0, 0.5j, -0.5), WS3, tolerance=tolerance)


def test_whole_line_functions_are_rejected():
    with pytest.raises(UnsupportedSupport):
        HalfPlaneFunction(gauss_poly(0))
    with pytest.raises(UnsupportedSupport):
        HalfPlaneFunction(reflect(flat(0)))


def test_modulus_bound_dominates_samples():
    f = HalfPlaneFunction(flat(2) + 0.5 * flat(0))
    bound = f.modulus_bound()
    for z in (0.0, 1.0, 1j, 5 + 2j, -3 + 0.1j):
        assert abs(f.eval_derivative(z)) <= bound * (1 + 1e-12)


def test_solution_backed_transform_uses_exact_moments():
    sol = solve_moments(SequenceTarget((1.0, 0.5, 2.0)), WS3)
    f = HalfPlaneFunction(sol)
    for p in range(3):
        expected = (1j ** p) * complex(sol.moment_closed(p))
        assert f.boundary_derivative(p) == pytest.approx(expected, rel=1e-14)


def test_prescribed_boundary_jet_is_attained():
    entries = (1.0, 1j, -0.5)
    result = borel_ritt_solve(entries, WS3)
    assert max(result.residuals) < 1e-5
    f = result.function
    for p, a_p in enumerate(entries):
        assert f.boundary_derivative(p) == pytest.approx(a_p, rel=1e-9,
                                                         abs=1e-12)
    d = result.to_dict()
    assert "residuals" in d


def test_prescribed_jet_respects_the_gate():
    from gsmoment import ConditionRefused
    ws = gevrey(1.5, horizon=256)
    with pytest.raises(ConditionRefused):
        borel_ritt_solve((1.0, 0.5), ws)
    result = borel_ritt_solve((1.0, 0.5), ws, override_gamma2=True)
    assert max(result.residuals) < 1e-5
