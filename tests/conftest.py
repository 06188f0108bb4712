"""Shared test fixtures."""

import pytest
from mpmath import mp


@pytest.fixture(autouse=True)
def mpmath_precision_restored():
    """The solver and the half-plane code set the global mpmath precision
    through mp.workprec and mp.workdps; every test must leave it at the
    default 53 bits."""
    yield
    prec, mp.prec = mp.prec, 53
    assert prec == 53, "mpmath precision left at %d bits" % prec
