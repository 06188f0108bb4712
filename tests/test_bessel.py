"""K_nu values: the float flat-atom moments against mpmath."""

import math

from mpmath import mp

from gsmoment import bessel
from gsmoment.bessel import flat_moment


def test_flat_moments_match_mpmath():
    with mp.workprec(80):
        for nu in range(-9, 171):
            ref = 2 * mp.besselk(abs(nu + 1), 2)
            assert abs(flat_moment(nu) - ref) <= ref * 2.0 ** -52
        ref = float(2 * mp.besselk(3.5, 2))
    assert abs(flat_moment(2.5) - ref) <= 1e-15 * ref


def test_overflowing_orders_are_infinite_without_growing_the_sequence():
    assert flat_moment(10 ** 7) == math.inf
    assert flat_moment(-10 ** 7) == math.inf
    assert len(bessel._K2) <= 173
