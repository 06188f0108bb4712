"""Seeded inputs for the workloads.

The benchmark draws every target, jet, test function and evaluation
point itself from --seed; the program receives only the values. Each
draw has its own stream, keyed by the seed and a label, so adding one
kind of input does not shift the others.
"""

from __future__ import annotations

import cmath
import json
import math
import random

GEVREY_ALPHAS = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
QGEVREY_BASES = (1.5, 2.0)

# ball-solve: the criterion-5 construction
BALL_ALPHA = 3.0
BALL_HORIZON = 256
BALL_DEGREE = 12
BALL_SCALE = 0.25
BALL_TOLERANCE = 1e-6

# the degree-12 half-plane source is drawn from this fixed stream, so the
# near-boundary evaluations that fail on it fail on every seed
HALFPLANE_SOURCE_SEED = 0
JET_DEGREE = 8
JET_TOLERANCE = 1e-5

# half-plane evaluation regions
NEAR_RADIUS = (0.005, 0.1)          # |z| <= 0.1
MODERATE_RADIUS = (0.2, 4.0)        # angle 0.1 pi to 0.9 pi
OSCILLATORY_RE = (5.5, 12.0)        # |Re z| > 5, the Fourier-weight branch
OSCILLATORY_IM = (2.0, 4.0)
SPIKE_IM = (55.0, 250.0)            # Im z > 50, the spike-subdivision branch
SPIKE_RE = 3.0
MAX_ORDER = 8

# near-boundary points where the float path of a solution-backed function
# is known to lose the value (fixed, not drawn)
BOUNDARY_FAULT_POINTS = (0.01j, 0.05 + 0.05j, 0.1j)


def stream(seed, *labels):
    return random.Random("/".join(str(v) for v in (seed,) + labels))


def ball_entries(rng, degree=BALL_DEGREE, h=BALL_SCALE, alpha=BALL_ALPHA):
    """a_p = u_p M_p / h^p with M_p = (p!)^alpha and u_p uniform in the
    complex unit disk."""
    out = []
    for p in range(degree + 1):
        u = math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        out.append(u * math.exp(alpha * math.lgamma(p + 1) - p * math.log(h)))
    return out


def jet_entries(rng, degree=JET_DEGREE):
    """The criterion-7 jet family: real and imaginary parts uniform in
    (-2, 2)."""
    return [complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            for _ in range(degree + 1)]


def flat_atoms(rng, count=3):
    """count flat atoms x^k e^(-x-1/x), distinct k in 0..4, coefficients
    with parts uniform in (-1, 1)."""
    ks = sorted(rng.sample(range(5), count))
    return [(k, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for k in ks]


def atoms_json(atoms):
    return json.dumps({"atoms": [["flat_halfline", k, re, im]
                                 for k, re, im in atoms]})


def _polar(rng, radius, angle):
    r = rng.uniform(*radius)
    th = rng.uniform(*angle)
    return complex(r * math.cos(th), r * math.sin(th))


REGIONS = ("near", "moderate", "oscillatory", "spike")


def point(rng, region):
    """One point of the closed upper half plane in the named region."""
    if region == "near":
        return _polar(rng, NEAR_RADIUS, (0.0, math.pi))
    if region == "moderate":
        return _polar(rng, MODERATE_RADIUS, (0.1 * math.pi, 0.9 * math.pi))
    if region == "oscillatory":
        return complex(rng.choice((-1.0, 1.0)) * rng.uniform(*OSCILLATORY_RE),
                       rng.uniform(*OSCILLATORY_IM))
    if region == "spike":
        return complex(rng.uniform(-SPIKE_RE, SPIKE_RE), rng.uniform(*SPIKE_IM))
    raise ValueError(region)


def weight_json(kind, param):
    key = "alpha" if kind == "gevrey" else "q"
    return json.dumps({"kind": kind, "params": {key: param}})


def expr_weight_json(alpha):
    return json.dumps({"kind": "expr",
                       "params": {"expression": "%r*lgamma(p+1)" % alpha}})


def target_json(entries, h):
    return json.dumps({"h": h, "entries": [[v.real, v.imag] for v in entries]})


def entries_json(entries):
    return json.dumps([[v.real, v.imag] for v in entries])
