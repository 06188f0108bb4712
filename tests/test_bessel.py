"""K_nu values: the float flat-atom moments and the complex runs
against mpmath."""

import cmath
import math

import pytest
from mpmath import mp

from gsmoment import IllConditioned, InvalidParameter, bessel
from gsmoment.bessel import flat_moment


def test_flat_moments_match_mpmath():
    with mp.workprec(80):
        for nu in range(-9, 171):
            ref = 2 * mp.besselk(abs(nu + 1), 2)
            assert abs(flat_moment(nu) - ref) <= ref * 2.0 ** -52
        # half-integer powers, on both sides of nu = -1, from the closed
        # form K_{1/2}(2) = (sqrt(pi)/2) e^-2 and the recurrence
        halves = [k + 0.5 for k in range(-9, 171, 7)] + [2.5, 170.5, -172.5]
        for nu in halves:
            ref = 2 * mp.besselk(abs(nu + 1), 2)
            assert abs(flat_moment(nu) - ref) <= ref * 2.0 ** -52
    for nu in (0.3, -1.25, math.nan):
        with pytest.raises(InvalidParameter, match="half-integer"):
            flat_moment(nu)


def test_overflowing_orders_are_infinite_without_growing_the_sequence():
    assert flat_moment(10 ** 7) == math.inf
    assert flat_moment(-10 ** 7) == math.inf
    assert len(bessel._K2) <= 173


# (digits, z) with w = 2 sqrt(1 - iz): |w| from 2 to 2000 on both sides of
# the CF2 crossover, and arg w within 0.01 of -pi/4 or pi/4 at real z
# (mpmath takes seconds at z = +-300 and +-1000 beyond 25 digits, but not
# at z = +-3e5)
_K_RUN_POINTS = [(25, z) for z in (0, 2j, 15, 16j, 0.3 + 100j, 300, -300,
                                    1000, -1000, 1e6j)] + \
                [(60, z) for z in (0, 16j, 3e5, 1e6j)] + \
                [(120, z) for z in (0, 16j, -3e5, 1e6j)]


@pytest.mark.parametrize("dps, z", _K_RUN_POINTS)
def test_k_runs_match_mpmath(dps, z):
    z = complex(z)
    with mp.workdps(dps):
        w = 2 * mp.sqrt(1 - 1j * mp.mpc(z))
        if z.imag == 0 and abs(z.real) >= 300:
            assert abs(abs(mp.arg(w)) - mp.pi / 4) < 0.01
        tol = mp.ldexp(1, 4 - mp.prec)
        for lo in (0, 5):
            hi = lo + 8
            ks = bessel.k_run(lo, hi, w)
            assert len(ks) == hi - lo + 1
            for n in (lo, lo + 1, hi):
                ref = mp.besselk(n, w)
                assert abs(ks[n - lo] - ref) <= tol * abs(ref)


def test_runs_from_the_crossover_on_call_no_mpmath_bessel(monkeypatch):
    # the z = 15 and z = 16i points above sit on either side of it
    below, above = 2 * mp.sqrt(1 - 15j), 2 * mp.sqrt(17)
    assert abs(below) < bessel._CF2_CROSSOVER < abs(above)

    def no_bessel(*args, **kwargs):
        raise AssertionError("mp.besselk called")
    monkeypatch.setattr(mp, "besselk", no_bessel)
    assert len(bessel.k_run(3, 9, above)) == 7
    with pytest.raises(AssertionError):
        bessel.k_run(3, 9, below)


def test_continued_fraction_refuses_to_spin():
    with mp.workdps(15):
        with pytest.raises(IllConditioned):
            bessel._k01_cf2(mp.mpc(mp.nan, 1))
