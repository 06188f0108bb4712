"""Command line front end.

Subcommands: classify, interpolate, seminorm, moments, solve, borel-ritt,
verify. Inputs are JSON, either inline (arguments starting with '{' or
'[') or paths to JSON files. Output is a single JSON document, written to
--out or stdout, with sorted keys and no timestamps so reruns are
byte-identical.

Exit codes: 0 all results decisive / checks passed; 3 at least one
Inconclusive or unknown result; 1 a computation was refused or failed,
or a result holds a number beyond float range, which JSON cannot
carry; 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

import numpy as np

from .atoms import TestFunction, dual_seminorm_pair, log_seminorm
from .conditions import DEFAULT_CONDITIONS, INCONCLUSIVE, classify
from .errors import (ConditionRefused, GsmomentError, IllConditioned,
                     InvalidParameter)
from .halfplane import borel_ritt_solve
from .interpolating import interpolation_agreement
from .solver import (OVERFLOW_LOG, SequenceTarget, lambda_norm,
                     membership_report, reduction_roundtrip, solve_moments)
from .transforms import OPERATORS, apply_operator
from .weightseq import make_sequence

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

MAX_MOMENT_ORDER = 1024


class UsageError(Exception):
    pass


def _load_json_arg(value, label):
    """Inline JSON if it looks like JSON, otherwise a file path."""
    text = value
    if not value.lstrip().startswith(("{", "[")):
        try:
            with open(value, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError("%s: cannot read %s: %s" % (label, value, exc))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError("%s: invalid JSON: %s" % (label, exc))


def _weight_from_args(args):
    data = _load_json_arg(args.weight, "--weight")
    if not isinstance(data, dict):
        raise UsageError("--weight: expected an object {kind, params, ...}")
    horizon = getattr(args, "horizon", None)
    return make_sequence(data, horizon=horizon)


def _function_from_args(value):
    data = _load_json_arg(value, "--function")
    if isinstance(data, list):
        data = {"atoms": data}
    if not (isinstance(data, dict) and isinstance(data.get("atoms"), list)):
        raise UsageError("--function: expected {\"atoms\": [...]}")
    return TestFunction.from_dict(data)


def _entries_from_json(data, label):
    if not isinstance(data, list):
        raise UsageError("%s: expected a list of entries" % label)
    out = []
    for item in data:
        if isinstance(item, (int, float)):
            out.append(complex(item))
        elif (isinstance(item, list) and len(item) == 2
              and all(isinstance(v, (int, float)) for v in item)):
            out.append(complex(float(item[0]), float(item[1])))
        else:
            raise UsageError(
                "%s: entries must be numbers or [re, im] pairs" % label)
    return tuple(out)


def _target_from_args(value):
    data = _load_json_arg(value, "--target")
    if not isinstance(data, dict):
        data = {"entries": data}
    try:
        h = float(data.get("h", 1.0))
    except (TypeError, ValueError):
        raise UsageError("--target: h must be a number") from None
    return SequenceTarget(_entries_from_json(data.get("entries"), "--target"),
                          h)


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError("not serializable: %r" % type(obj))


# ------------------------------------------------------------- subcommands

def _cmd_classify(args):
    ws = _weight_from_args(args)
    conditions = DEFAULT_CONDITIONS
    if args.conditions:
        conditions = tuple(c.strip() for c in args.conditions.split(",")
                           if c.strip())
    reports = classify(ws, conditions)
    payload = {
        "weight": ws.descriptor(),
        "horizon": ws.horizon,
        "reports": {rep.condition: rep.to_dict() for rep in reports},
    }
    code = EXIT_OK
    if any(rep.verdict == INCONCLUSIVE for rep in reports):
        code = EXIT_INCONCLUSIVE
    if args.csv:
        lines = ["condition,verdict"]
        for rep in reports:
            lines.append("%s,%s" % (rep.condition, rep.verdict))
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return payload, code


def _cmd_interpolate(args):
    ws = _weight_from_args(args)
    agreement = interpolation_agreement(ws)
    payload = {
        "weight": ws.descriptor(),
        "interpolated_horizon": 2 * ws.horizon,
        "transfers": agreement,
    }
    code = EXIT_OK
    if any(entry["match"] == "unknown" for entry in agreement.values()):
        code = EXIT_INCONCLUSIVE
    elif any(entry["match"] == "disagree" for entry in agreement.values()):
        code = EXIT_FAILURE
    return payload, code


def _cmd_seminorm(args):
    ws = _weight_from_args(args)
    phi = _function_from_args(args.function)
    if args.amplitude:
        amp_data = _load_json_arg(args.amplitude, "--amplitude")
        amp = make_sequence(amp_data)
        value = dual_seminorm_pair(phi, ws, amp, args.scale, args.order_cap)
        payload = {
            "kind": "dual",
            "weight": ws.descriptor(),
            "amplitude": amp.descriptor(),
            "order_cap": args.order_cap,
            "scale": args.scale,
            "value": value,
        }
        return payload, EXIT_OK
    logv, where = log_seminorm(phi, args.order_cap, args.scale, ws)
    if logv > OVERFLOW_LOG:
        raise InvalidParameter(
            "weighted sup-norm overflows a double: log_value %s"
            % float(logv))
    payload = {
        "kind": "weighted_sup",
        "weight": ws.descriptor(),
        "order_cap": args.order_cap,
        "scale": args.scale,
        "log_value": None if logv == -math.inf else logv,
        "value": 0.0 if logv == -math.inf else float(np.exp(logv)),
        "argmax": where,
    }
    return payload, EXIT_OK


def _cmd_moments(args):
    if not 0 <= args.max_order <= MAX_MOMENT_ORDER:
        raise UsageError("--max-order must lie in 0..%d" % MAX_MOMENT_ORDER)
    phi = _function_from_args(args.function)
    applied = []
    for tag in args.apply or []:
        if tag not in OPERATORS:
            raise UsageError("--apply: unknown operator %r" % tag)
        domain, _ = OPERATORS[tag]
        if domain != "function":
            raise UsageError(
                "--apply: %s acts on sequences, not functions" % tag)
        phi = apply_operator(tag, phi)
        applied.append(tag)
    moments = []
    for p in range(args.max_order + 1):
        mu = complex(phi.moment(p))
        if not cmath.isfinite(mu):
            raise InvalidParameter(
                "moment of order %d overflows a double" % p)
        moments.append(_pair(mu))
    payload = {
        "applied": applied,
        "max_order": args.max_order,
        "moments": moments,
    }
    return payload, EXIT_OK


def _cmd_solve(args):
    ws = _weight_from_args(args)
    target = _target_from_args(args.target)
    sol = solve_moments(target, ws, override_gamma2=args.override_gamma2,
                        tolerance=args.tolerance, min_bits=args.precision)
    payload = sol.to_dict()
    payload["lambda_norm"] = lambda_norm(target, ws)
    if args.membership:
        payload["membership"] = membership_report(sol.function, ws)
    if args.reduction:
        red = reduction_roundtrip(target, ws,
                                  override_gamma2=args.override_gamma2,
                                  tolerance=args.tolerance)
        payload["reduction"] = {
            "residuals": list(red.residuals),
            "even_degree": red.even_solution.degree,
            "odd_degree": red.odd_solution.degree,
        }
    return payload, EXIT_OK


def _cmd_borel_ritt(args):
    ws = _weight_from_args(args)
    data = _load_json_arg(args.entries, "--entries")
    entries = _entries_from_json(data, "--entries")
    result = borel_ritt_solve(entries, ws, h=args.scale,
                              override_gamma2=args.override_gamma2,
                              tolerance=args.tolerance)
    payload = result.to_dict()
    payload["boundary_jet"] = [_pair(v) for v in entries]
    return payload, EXIT_OK


def _cmd_verify(args):
    ws = _weight_from_args(args)
    payload = {"weight": ws.descriptor(), "horizon": ws.horizon}
    code = EXIT_OK

    reports = classify(ws)
    payload["classification"] = {rep.condition: rep.verdict
                                 for rep in reports}
    if any(rep.verdict == INCONCLUSIVE for rep in reports):
        code = EXIT_INCONCLUSIVE

    agreement = interpolation_agreement(ws)
    payload["interpolation"] = {
        label: entry["match"] for label, entry in agreement.items()}
    if any(entry["match"] == "unknown" for entry in agreement.values()):
        code = max(code, EXIT_INCONCLUSIVE)
    if any(entry["match"] == "disagree" for entry in agreement.values()):
        return payload, EXIT_FAILURE

    target = SequenceTarget((1.0, 1.0, 2.0, 6.0), h=1.0)
    try:
        sol = solve_moments(target, ws, override_gamma2=args.override_gamma2,
                            tolerance=args.tolerance)
    except ConditionRefused:
        payload["solve_check"] = {
            "skipped": "gate condition verdict is %s"
                       % payload["classification"]["gamma2"]}
        return payload, code
    except IllConditioned as exc:
        payload["solve_check"] = {"degree": target.degree, "passed": False,
                                  "error": str(exc)}
        return payload, EXIT_FAILURE
    # a returned solution met the tolerance: solve_moments raises otherwise
    payload["solve_check"] = {
        "degree": sol.degree,
        "worst_residual": max(sol.residuals),
        "passed": True,
    }
    return payload, code


# ------------------------------------------------------------------ parser

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON result to this path")

    weighted = argparse.ArgumentParser(add_help=False)
    weighted.add_argument("--weight", required=True,
                          help="weight config: JSON or path "
                               "({kind, params, horizon})")
    weighted.add_argument("--horizon", type=int, default=None,
                          help="override the config horizon")

    parser = argparse.ArgumentParser(
        prog="gsmoment",
        description="weight sequence classification and moment problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common, weighted],
                       help="run growth/regularity condition checks")
    p.add_argument("--conditions", default=None,
                   help="comma separated subset, e.g. lc,dc,gamma_r(2.5)")
    p.add_argument("--csv", default=None,
                   help="also write a condition,verdict CSV table")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("interpolate", parents=[common, weighted],
                       help="midpoint interpolation and condition transfer")
    p.set_defaults(handler=_cmd_interpolate)

    p = sub.add_parser("seminorm", parents=[common, weighted],
                       help="weighted sup-norm of a test function")
    p.add_argument("--function", required=True,
                   help="test function: JSON or path ({atoms: [...]})")
    p.add_argument("--order-cap", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--amplitude", default=None,
                   help="second weight config for the dual pairing norm")
    p.set_defaults(handler=_cmd_seminorm)

    p = sub.add_parser("moments", parents=[common],
                       help="closed-form moments, optionally transformed")
    p.add_argument("--function", required=True)
    p.add_argument("--max-order", type=int, default=8,
                   help="highest moment order, 0..%d" % MAX_MOMENT_ORDER)
    p.add_argument("--apply", action="append", default=None,
                   metavar="TAG",
                   help="operator tag applied before taking moments; "
                        "choices: %s" % ", ".join(sorted(OPERATORS)))
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("solve", parents=[common, weighted],
                       help="solve a finite moment problem")
    p.add_argument("--target", required=True,
                   help="target: JSON or path ({h, entries} or list)")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--precision", type=int, default=None,
                   help="starting precision in bits")
    p.add_argument("--override-gamma2", action="store_true")
    p.add_argument("--membership", action="store_true",
                   help="attach a sup-norm profile of the solution")
    p.add_argument("--reduction", action="store_true",
                   help="also run the parity-split roundtrip")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("borel-ritt", parents=[common, weighted],
                       help="half-plane function with a prescribed "
                            "boundary jet")
    p.add_argument("--entries", required=True,
                   help="boundary jet values: JSON or path")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--override-gamma2", action="store_true")
    p.set_defaults(handler=_cmd_borel_ritt)

    p = sub.add_parser("verify", parents=[common, weighted],
                       help="classification, interpolation, and solve "
                            "self-checks")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--override-gamma2", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.handler(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except GsmomentError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                          default=_json_default) + "\n"
    except ValueError as exc:  # an inf or nan has no JSON form
        print("error: result is not finite: %s" % exc, file=sys.stderr)
        return EXIT_FAILURE
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print("io error: %s" % exc, file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
