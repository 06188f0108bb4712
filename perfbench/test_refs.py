"""The references of refs.py against mpmath.quad at a few points.

    python3 -m pytest -q perfbench/test_refs.py

This checks the checker: the Bessel-sum moments, the closed-form
half-plane values, the coefficient parser and the brute-force associated
function are each compared with a direct computation.
"""

import math
import os
import sys

import mpmath
import pytest
from mpmath import mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refs  # noqa: E402


def _quad_moment(k, p):
    with mp.workdps(30):
        return mp.quad(lambda t: t ** (k + p) * mp.exp(-t - 1 / t),
                       [0, 1, 5, 25, mp.inf])


def _quad_halfplane(k, z, p):
    with mp.workdps(30):
        zm = mpmath.mpc(z)
        f = lambda t: (1j * t) ** p * t ** k * mp.exp(-t - 1 / t) \
            * mp.exp(1j * t * zm)
        return complex(mp.quad(f, [0, 1, 5, 25, 90, mp.inf]))


@pytest.mark.parametrize("k,p", [(0, 0), (2, 3), (4, 8), (0, 12)])
def test_flat_moments_match_quadrature(k, p):
    got = refs.flat_moments([1], [k], [p], 200)[0]
    want = _quad_moment(k, p)
    assert abs(got - want) / abs(want) < 1e-25


def test_solution_moments_sum_the_atoms():
    coeffs = ["(1.5 - 0.25j)", "-2.0", "(0.0 + 3.0j)"]
    got = refs.solution_moments(coeffs, 200)
    for p in range(3):
        with mp.workdps(30):
            want = (mpmath.mpc(1.5, -0.25) * _quad_moment(0, p)
                    - 2 * _quad_moment(1, p) + 3j * _quad_moment(2, p))
            assert abs(got[p] - want) / abs(want) < 1e-25


@pytest.mark.parametrize("k,z,p", [
    (0, 0.05j, 0), (2, 0.3 + 0.2j, 3), (4, 1 + 1j, 8), (1, -7 + 2.5j, 2),
    (3, 60j, 5)])
def test_halfplane_closed_form_matches_quadrature(k, z, p):
    got = refs.halfplane_value([1.0], [k], z, p)
    want = _quad_halfplane(k, z, p)
    assert abs(got - want) / abs(want) < 1e-12


def test_halfplane_sums_over_coefficients():
    coeffs = ["(1e3 - 2e3j)", "-1e3"]
    z, p = 0.5 + 1j, 2
    got = refs.halfplane_value(coeffs, [0, 1], z, p)
    want = (complex(1e3, -2e3) * _quad_halfplane(0, z, p)
            - 1e3 * _quad_halfplane(1, z, p))
    assert abs(got - want) / abs(want) < 1e-12


def test_parse_coefficient_reads_complex_and_exponents():
    with mp.workdps(50):
        c = refs.parse_coefficient("(-6.4e+25 + 5.7e-3j)")
        assert c == mpmath.mpc("-6.4e+25", "5.7e-3")
        assert refs.parse_coefficient("(1.0 - 2.0j)") == mpmath.mpc(1, -2)
        assert refs.parse_coefficient("-3.25") == mpmath.mpf("-3.25")


def test_associated_function_is_the_brute_force_sup():
    log_weight = lambda p: 2.0 * math.lgamma(p + 1)
    # for (p!)^2 the sup of p log t - 2 log p! sits where p ~ sqrt(t)
    t = 400.0
    got = refs.log_associated(log_weight, t, 4096)
    want = max(p * math.log(t) - log_weight(p) for p in range(15, 26))
    assert got == want


def test_expected_verdicts_follow_the_thresholds():
    assert refs.expected_verdict("gevrey", 2.0, "gamma2") == "Fails"
    assert refs.expected_verdict("gevrey", 2.5, "gamma2") == "Holds"
    assert refs.expected_verdict("gevrey", 3.0, "gamma_r(3)") == "Fails"
    assert refs.expected_verdict("qgevrey", 1.5, "mg") == "Fails"
    assert refs.expected_verdict("qgevrey", 1.5, "beta2_0") == "Holds"
