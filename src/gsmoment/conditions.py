"""Finite-horizon condition checks on weight sequences.

Each check reduces an asymptotic condition to a statistic computed at the
three horizons {P/4, P/2, P} and classifies the trend:

  * Holds        statistic stable (relative change below 5% per step),
  * Fails        statistic grows by a factor of ~2 per step, or a tail fit
                 proves divergence, or a bounded trace contradicts the
                 condition's required divergence,
  * Inconclusive anything in between, and any case where a table-backed
                 sequence would need data beyond its own entries.

Verdicts are evidence about the cached horizon, never a proof about the
full sequence; witnesses carry the numbers the verdict rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .weightseq import LC_TOL, WeightSequence, is_log_convex, lc_second_differences

HOLDS = "Holds"
FAILS = "Fails"
INCONCLUSIVE = "Inconclusive"

# trend thresholds, applied to log-domain statistics
_STABLE_STEP = math.log(1.05)
_GROWTH_STEP = math.log(1.9)

# beta2 search protocol
BETA2_N_MAX = 16
BETA2_EPS_GRID = tuple(2.0 ** (-k) for k in range(13))

# divergence evidence for limit-type conditions: the limsup estimate must
# move by at least this much per horizon doubling
_DIVERGE_STEP = math.log(2.0)

_MIN_TRACE_POINTS = 8

DEFAULT_CONDITIONS = (
    "lc", "dc", "mg",
    "gamma", "gamma1", "gamma2", "gamma_r(3)",
    "beta2", "beta2_0", "beta2_1",
)

# premise -> conclusion pairs that may never read {premise: Holds,
# conclusion: Fails}; enforced by classify() after the individual checks
_IMPLICATIONS = (
    (("mg",), "dc"),
    (("gamma1",), "gamma"),
    (("lc", "gamma2"), "gamma1"),
    (("beta2_0",), "beta2"),
    (("beta2",), "beta2_1"),
)


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    verdict: str
    witness: dict
    horizons: tuple

    def to_dict(self):
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "witness": self.witness,
            "horizons": list(self.horizons),
        }


def three_horizons(horizon):
    return (horizon // 4, horizon // 2, horizon)


def _flat(trace):
    """Three limsup estimates that moved less than log 1.05, or less than
    5% of the last one."""
    return max(trace) - min(trace) < max(_STABLE_STEP, 0.05 * abs(trace[-1]))


def _rel_step(a, b):
    scale = max(abs(a), abs(b), 1e-300)
    return abs(b - a) / scale


def _bounded_trend_verdict(stats):
    """Classify a statistic that must stay bounded for the condition to hold."""
    s1, s2, s3 = stats
    if s2 > 0 and s3 > 0 and math.log(max(s2, 1e-300) / max(s1, 1e-300)) > _GROWTH_STEP \
            and math.log(s3 / s2) > _GROWTH_STEP:
        return FAILS
    if _rel_step(s1, s2) < 0.05 and _rel_step(s2, s3) < 0.05:
        return HOLDS
    return INCONCLUSIVE


def check_lc(ws, tol=LC_TOL):
    """Log-convexity: second differences of log M_p must be >= -tol."""
    d2 = lc_second_differences(ws)
    i = int(np.argmin(d2))
    worst = float(d2[i])
    witness = {"min_second_difference": worst, "at_p": i + 1, "tol": tol}
    verdict = HOLDS if worst >= -tol else FAILS
    return ConditionReport("lc", verdict, witness, (ws.horizon,))


def _affine_bound(name, ws, series, index):
    """The series must stay below an affine function of the index. The
    statistic is max(series / index) over the indices up to each horizon;
    on Holds the witness adds H and C0 with series <= log C0 + index log H,
    H from the slope of a least-squares line."""
    horizons = three_horizons(ws.horizon)
    ratio = series / index
    stats = [float(np.max(ratio[index <= h])) for h in horizons]
    verdict = _bounded_trend_verdict(stats)
    witness = {"statistic": stats}
    if verdict is HOLDS:
        log_h = max(float(np.polyfit(index, series, 1)[0]), 0.0)
        log_c0 = max(float(np.max(series - log_h * index)), 0.0)
        witness["H"] = math.exp(log_h)
        witness["C0"] = math.exp(log_c0)
    return ConditionReport(name, verdict, witness, horizons)


def check_dc(ws):
    """Derivation closedness: log m_p bounded by an affine function of p."""
    p = np.arange(1, ws.horizon + 1, dtype=float)
    return _affine_bound("dc", ws, ws.log_ratios, p)


def _mg_split_gaps(ws):
    """D(s) = max_{p+q=s} (log M_s - log M_p - log M_q) for s = 2..horizon."""
    lv = ws.log_values
    s = np.arange(2, ws.horizon + 1)
    if is_log_convex(ws):
        # log-convexity puts the worst split in the middle
        return lv[s] - lv[s // 2] - lv[s - s // 2]
    gaps = np.empty(ws.horizon - 1)
    for j, si in enumerate(range(2, ws.horizon + 1)):
        inner = lv[1:si] + lv[si - 1:0:-1]
        gaps[j] = lv[si] - inner.min()
    return gaps


def check_mg(ws):
    """Moderate growth: log M_{p+q} - log M_p - log M_q bounded by an
    affine function of p + q."""
    s = np.arange(2, ws.horizon + 1, dtype=float)
    return _affine_bound("mg", ws, _mg_split_gaps(ws), s)


def _tail_fit(log_summand, h):
    """Extrapolate sum_{q>h} of a decaying summand from its last decade.

    Fits the log-summand both against log q (power law) and against q
    (exponential law), keeps whichever fits better, and integrates the
    fitted law over (h, inf). Returns (log tail, info); log tail is +inf
    when the fitted law diverges.
    """
    qlo = max(1, h // 10)
    q = np.arange(qlo, h + 1, dtype=float)
    y = log_summand[qlo - 1:h]
    kappa, c_pow = np.polyfit(np.log(q), y, 1)
    sse_pow = float(np.sum((c_pow + kappa * np.log(q) - y) ** 2))
    lam, c_exp = np.polyfit(q, y, 1)
    sse_exp = float(np.sum((c_exp + lam * q - y) ** 2))
    if sse_pow <= sse_exp:
        info = {"tail_model": "power", "tail_exponent": float(kappa)}
        if kappa >= -1.0 - 1e-6:
            return math.inf, info
        tail = c_pow + (kappa + 1.0) * math.log(h) - math.log(-(kappa + 1.0))
        return float(tail), info
    info = {"tail_model": "exponential", "tail_rate": float(lam)}
    if lam >= -1e-12:
        return math.inf, info
    tail = c_exp + lam * h - math.log(-lam)
    return float(tail), info


def _gamma_statistic(ws, r, h, sup_form):
    """Log of the finite-horizon gamma statistic at horizon h.

    Plain form: log(sum_q m_q^(-1/r) + tail). Sup form: the same suffix
    sums entering sup_p (m_p^(1/r)/p) sum_{q>=p} m_q^(-1/r).
    """
    lr = ws.log_ratios[:h]
    log_summand = -lr / r
    tail, info = _tail_fit(log_summand, h)
    if math.isinf(tail):
        return math.inf, info
    suffix = np.logaddexp.accumulate(log_summand[::-1])[::-1]
    with_tail = np.logaddexp(suffix, tail)
    if not sup_form:
        return float(with_tail[0]), info
    p = np.arange(1, h + 1, dtype=float)
    sigma = lr / r - np.log(p) + with_tail
    i = int(np.argmax(sigma))
    info = dict(info)
    info["sup_at_p"] = i + 1
    return float(sigma[i]), info


def _check_gamma_family(ws, name, r, sup_form):
    horizons = three_horizons(ws.horizon)
    if not ws.closed_form:
        witness = {"reason": "tail extrapolation beyond tabulated data"}
        return ConditionReport(name, INCONCLUSIVE, witness, horizons)
    stats, infos = [], []
    for h in horizons:
        stat, info = _gamma_statistic(ws, r, h, sup_form)
        stats.append(stat)
        infos.append(info)
    witness = {"log_statistic": [s if math.isfinite(s) else None for s in stats]}
    witness.update(infos[-1])
    if math.isinf(stats[-1]):
        return ConditionReport(name, FAILS, witness, horizons)
    if any(math.isinf(s) for s in stats):
        return ConditionReport(name, INCONCLUSIVE, witness, horizons)
    d1, d2 = stats[1] - stats[0], stats[2] - stats[1]
    if d1 > _GROWTH_STEP and d2 > _GROWTH_STEP:
        return ConditionReport(name, FAILS, witness, horizons)
    if abs(d1) < _STABLE_STEP and abs(d2) < _STABLE_STEP:
        if stats[-1] < 700.0:
            witness["statistic"] = math.exp(stats[-1])
        return ConditionReport(name, HOLDS, witness, horizons)
    return ConditionReport(name, INCONCLUSIVE, witness, horizons)


def _beta2_admissible(ws, n):
    """Largest p usable for the scaled-index statistics at rescale n."""
    if ws.closed_form:
        return ws.horizon
    return ws.horizon // n


def _beta2_trace(ws, n, pmax):
    p = np.arange(1, pmax + 1)
    idx = n * p
    lw_np = ws.log_weight_array(idx)
    lw_np_prev = ws.log_weight_array(idx - 1)
    lw_p = ws.log_weight_array(p)
    return (lw_np - lw_p) / (p * (n - 1.0)) - (lw_np - lw_np_prev)


def _ratio_gap_trace(ws, n, pmax):
    """log m_{np} - log m_p for p = 1..pmax."""
    p = np.arange(1, pmax + 1)
    idx = n * p
    return (ws.log_weight_array(idx) - ws.log_weight_array(idx - 1)) \
        - (ws.log_weight_array(p) - ws.log_weight_array(p - 1))


def _limsup_estimate(trace, h, pmax):
    top = min(h, pmax)
    lo = max(top // 2, 1)
    if top - lo + 1 < _MIN_TRACE_POINTS:
        return None
    return float(np.max(trace[lo - 1:top]))


def _rescaled_limsups(ws, trace_of, horizons):
    """(n, limsup estimates of trace_of(ws, n, pmax) at the three horizons)
    for n = 2..16, computed one n at a time as the caller asks; the
    estimates read None when the admissible index range at n is too short."""
    for n in range(2, BETA2_N_MAX + 1):
        pmax = _beta2_admissible(ws, n)
        trace = trace_of(ws, n, pmax)
        per_h = [_limsup_estimate(trace, h, pmax) for h in horizons]
        yield n, None if None in per_h else per_h


def _too_short(name, n, horizons):
    witness = {"reason": "admissible index range too short at rescale "
                         "n=%d for a limsup estimate" % n}
    return ConditionReport(name, INCONCLUSIVE, witness, horizons)


def check_beta2(ws):
    """For every eps in the grid, some rescale n <= 16 must push the
    finite-horizon limsup statistic below log eps, at all three horizons."""
    horizons = three_horizons(ws.horizon)
    limsups = {}
    for n, per_h in _rescaled_limsups(ws, _beta2_trace, horizons):
        if per_h is None:
            return _too_short("beta2", n, horizons)
        limsups[n] = per_h
    n_for_eps = {}
    failing_eps = None
    for eps in BETA2_EPS_GRID:
        ln_eps = math.log(eps)
        found = None
        for n in range(2, BETA2_N_MAX + 1):
            if all(v <= ln_eps for v in limsups[n]):
                found = n
                break
        if found is None:
            failing_eps = eps
            break
        n_for_eps["%g" % eps] = found
    if failing_eps is None:
        return ConditionReport("beta2", HOLDS, {"n_for_eps": n_for_eps}, horizons)
    best_n = min(limsups, key=lambda n: limsups[n][-1])
    trail = limsups[best_n]
    witness = {"eps": failing_eps, "best_n": best_n, "limsup": trail[-1],
               "limsup_trace": trail}
    verdict = FAILS if _flat(trail) else INCONCLUSIVE
    return ConditionReport("beta2", verdict, witness, horizons)


def check_beta2_0(ws):
    """Some rescale n <= 16 must make m_{np}/m_p diverge."""
    horizons = three_horizons(ws.horizon)
    all_flat = True
    bound = -math.inf
    sample = {}
    for n, per_h in _rescaled_limsups(ws, _ratio_gap_trace, horizons):
        if per_h is None:
            return _too_short("beta2_0", n, horizons)
        if per_h[1] - per_h[0] > _DIVERGE_STEP and per_h[2] - per_h[1] > _DIVERGE_STEP:
            witness = {"n": n, "log_ratio_gap_trace": per_h}
            return ConditionReport("beta2_0", HOLDS, witness, horizons)
        all_flat = all_flat and _flat(per_h)
        bound = max(bound, per_h[-1])
        sample["%d" % n] = per_h[-1]
    if all_flat:
        witness = {"sup_log_ratio_gap": bound, "per_n": sample}
        return ConditionReport("beta2_0", FAILS, witness, horizons)
    return ConditionReport("beta2_0", INCONCLUSIVE, {"per_n": sample}, horizons)


def check_beta2_1(ws):
    """M_p^(1/p) / m_p must tend to zero (log statistic to -inf)."""
    horizons = three_horizons(ws.horizon)
    h = ws.horizon
    p = np.arange(1, h + 1, dtype=float)
    w = ws.log_values[1:h + 1] / p - ws.log_ratios[:h]
    per_h = [_limsup_estimate(w, hh, h) for hh in horizons]
    witness = {"log_statistic_trace": per_h}
    if per_h[1] < per_h[0] - _DIVERGE_STEP and per_h[2] < per_h[1] - _DIVERGE_STEP:
        return ConditionReport("beta2_1", HOLDS, witness, horizons)
    verdict = FAILS if _flat(per_h) else INCONCLUSIVE
    return ConditionReport("beta2_1", verdict, witness, horizons)


# condition name -> check(ws); gamma_r(r) has its own branch in check_condition
_CHECKS = {
    "lc": check_lc,
    "dc": check_dc,
    "mg": check_mg,
    "gamma": lambda ws: _check_gamma_family(ws, "gamma", 1.0, False),
    "gamma1": lambda ws: _check_gamma_family(ws, "gamma1", 1.0, True),
    "gamma2": lambda ws: _check_gamma_family(ws, "gamma2", 2.0, True),
    "beta2": check_beta2,
    "beta2_0": check_beta2_0,
    "beta2_1": check_beta2_1,
}


def check_condition(ws, condition, r=None):
    """Check one named condition; gamma_r takes its parameter either inline
    ("gamma_r(3)"), which wins, or via the r argument.

    Reports of the fixed names are memoised on the sequence, so the
    solver's gate, classify and interpolation_agreement share one
    computation; gamma_r reports, whose names are unbounded, are not."""
    if not isinstance(ws, WeightSequence):
        raise InvalidParameter("expected a WeightSequence")
    if condition in _CHECKS:
        if condition not in ws._reports:
            ws._reports[condition] = _CHECKS[condition](ws)
        return ws._reports[condition]
    if condition.startswith("gamma_r(") and condition.endswith(")"):
        try:
            r = float(condition[len("gamma_r("):-1])
        except ValueError:
            raise InvalidParameter("bad gamma_r parameter in %r" % condition)
    elif condition != "gamma_r":
        raise InvalidParameter("unknown condition %r" % condition)
    if r is None:
        raise InvalidParameter("gamma_r needs a parameter r")
    r = float(r)
    if not r > 0:
        raise InvalidParameter("gamma_r needs r > 0, got %g" % r)
    return _check_gamma_family(ws, "gamma_r(%g)" % r, r, sup_form=True)


def classify(ws, conditions=None):
    """Check a set of conditions and enforce implication coherence.

    When a premise reads Holds and its implied conclusion reads Fails, the
    two finite-horizon statistics contradict a theorem, so the conclusion
    is unreliable and demoted to Inconclusive with the original evidence
    kept in the witness.
    """
    if conditions is None:
        conditions = DEFAULT_CONDITIONS
    reports = {}
    for cond in conditions:
        reports[cond] = check_condition(ws, cond)
    for premises, conclusion in _IMPLICATIONS:
        if conclusion not in reports:
            continue
        if not all(reports.get(p) is not None and reports[p].verdict == HOLDS
                   for p in premises):
            continue
        concl = reports[conclusion]
        if concl.verdict == FAILS:
            witness = {
                "reason": "demoted: %s holding implies %s cannot fail"
                          % (" and ".join(premises), conclusion),
                "original_witness": concl.witness,
            }
            reports[conclusion] = ConditionReport(
                concl.condition, INCONCLUSIVE, witness, concl.horizons)
    return [reports[c] for c in conditions]
