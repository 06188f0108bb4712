"""Half-step interpolation of weight sequences.

From (M_q) build the sequence (N_p) on twice the index range:

    N_{2q}   = M_q,
    N_{2q+1} = sqrt(M_q M_{q+1})   (arithmetic mean in the log domain).

N inherits log-convexity, doubles the horizon, and ties conditions on M
to conditions on N: derivation closedness transfers unchanged, the
square-root gamma condition on M becomes the plain one on N, and the
rescaled-index condition transfers unchanged. interpolation_agreement
checks those three equivalences verdict-by-verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditions import FAILS, HOLDS, check_condition
from .weightseq import WeightSequence


def _interpolated_rule(base):
    def vec(ps):
        arr = np.atleast_1d(np.asarray(ps))
        idx = np.rint(arr).astype(np.int64)
        q, rem = idx // 2, idx % 2
        out = np.empty(idx.shape, dtype=float)
        even = rem == 0
        if even.any():
            out[even] = base.log_weight_array(q[even])
        odd = ~even
        if odd.any():
            out[odd] = 0.5 * (base.log_weight_array(q[odd])
                              + base.log_weight_array(q[odd] + 1))
        return out if np.ndim(ps) else float(out[0])
    return vec


@dataclass(frozen=True)
class InterpolatedPair:
    base: WeightSequence
    interpolated: WeightSequence


def two_interpolate(ws):
    """Interpolated sequence on the doubled horizon, paired with its base.

    The interpolant of a closed-form base keeps the rule; that of a table
    is the table of the rule's values on 0..2H, since the rule cannot
    answer beyond 2H where the base table ends."""
    rule = _interpolated_rule(ws)
    horizon = 2 * ws.horizon
    if ws.closed_form:
        source = {"log_weight_vec": rule}
    else:
        source = {"log_values": rule(np.arange(horizon + 1))}
    interp = WeightSequence("interpolated", {"base": ws.descriptor()},
                            horizon=horizon, **source)
    return InterpolatedPair(base=ws, interpolated=interp)


def _match(base_verdict, interp_verdict):
    decisive = {HOLDS, FAILS}
    if base_verdict in decisive and interp_verdict in decisive:
        return "agree" if base_verdict == interp_verdict else "disagree"
    return "unknown"


def interpolation_agreement(ws):
    """Cross-check the condition equivalences between ws and its interpolant.

    Returns a report keyed by the three transfers: dc <-> dc,
    gamma2(base) <-> gamma1(interpolated), beta2 <-> beta2. Each entry
    carries both verdicts and a match field (agree/disagree/unknown);
    unknown means at least one side was Inconclusive.
    """
    pair = two_interpolate(ws)
    interp = pair.interpolated
    checks = (
        ("dc", "dc", "dc"),
        ("gamma_halved", "gamma2", "gamma1"),
        ("beta", "beta2", "beta2"),
    )
    report = {}
    for label, base_cond, interp_cond in checks:
        rb = check_condition(ws, base_cond)
        ri = check_condition(interp, interp_cond)
        report[label] = {
            "base_condition": base_cond,
            "base_verdict": rb.verdict,
            "interpolated_condition": interp_cond,
            "interpolated_verdict": ri.verdict,
            "match": _match(rb.verdict, ri.verdict),
        }
    return report
