"""Golden outputs of the seven README command-line examples, of two
classify runs that pin every condition's report, of one solve run with
the parity-split reduction, of one degree-8 solve with its membership
profile, of one dual pairing norm and of one whole-line seminorm:
thirteen examples.

Each example's stdout and exit code, and the CSV file that the classify
example writes, are stored under tests/golden/ and compared byte for
byte through cli.main. A change that alters any of them must regenerate
the files on purpose and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_cli.py

The regenerator prints, for each file it rewrites, the JSON paths whose
values moved (old -> new) before it writes anything.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from gsmoment.cli import main

GOLDEN = Path(__file__).parent / "golden"
CSV = "{csv}"  # replaced by a path under a temporary directory

GEVREY2 = '{"kind":"gevrey","params":{"alpha":2.0}}'
GEVREY3 = '{"kind":"gevrey","params":{"alpha":3.0}}'
FLAT0 = '{"atoms":[["flat_halfline",0,1.0,0.0]]}'
# a Gaussian plus a reflected flat atom: the whole-line grid, both signs
WHOLE_LINE = ('{"atoms":[["gaussian_poly",2,1.0,0.0],'
              '["flat_halfline",1,0.5,-0.25,true]]}')
# log (p!)^2 for p <= 128 with log M_40 raised by 0.5: not log-convex, so
# mg takes its brute-force split, and table-backed
DENTED = json.dumps({"kind": "table", "params": {"log_values": [
    2.0 * math.lgamma(p + 1) + (0.5 if p == 40 else 0.0)
    for p in range(129)]}})
# a fixed degree-8 complex target at h = 1, inside the unit ball of gevrey(3)
BALL8 = ('{"h":1.0,"entries":[[-0.7746,0.1582],[-0.3098,0.8951],'
         '[-1.252,6.934],[-3.136,102.5],[-7127.0,2562.0],'
         '[-1.614e6,-4.615e4],[-2.557e7,-8.933e6],[1.16e11,-3.28e9],'
         '[1.55e13,-5.643e13]]}')
EVERY_CONDITION = ("lc,dc,mg,gamma,gamma1,gamma2,gamma_r(3),beta2,beta2_0,"
                   "beta2_1,gamma_r(2.5)")

EXAMPLES = {
    "classify": ["classify", "--weight", GEVREY3, "--horizon", "512",
                 "--csv", CSV],
    "interpolate": ["interpolate", "--weight",
                    '{"kind":"qgevrey","params":{"q":2.0}}'],
    "seminorm": ["seminorm", "--weight", GEVREY2, "--function", FLAT0,
                 "--order-cap", "4"],
    "seminorm-dual": ["seminorm", "--weight", GEVREY2, "--function", FLAT0,
                      "--order-cap", "6", "--scale", "2.0",
                      "--amplitude", GEVREY3],
    "seminorm-whole-line": ["seminorm", "--weight", GEVREY2, "--function",
                            WHOLE_LINE, "--order-cap", "5", "--scale", "0.5"],
    "moments": ["moments", "--function", FLAT0, "--max-order", "6",
                "--apply", "fold", "--apply", "sqrt_sub"],
    "solve": ["solve", "--weight", GEVREY3, "--target", "[1.0, 0.5, 2.0]",
              "--membership"],
    "borel-ritt": ["borel-ritt", "--weight", GEVREY3,
                   "--entries", "[1.0, [0.0, 1.0], -0.5]"],
    "solve-reduction": ["solve", "--weight", GEVREY3, "--target",
                        "[1.0, 0.5, 2.0, -1.0, 4.0]", "--reduction"],
    "solve-membership-ball": ["solve", "--weight", GEVREY3, "--target",
                              BALL8, "--membership"],
    "verify": ["verify", "--weight", GEVREY3],
    "classify-qgevrey": ["classify", "--weight",
                         '{"kind":"qgevrey","params":{"q":1.5}}',
                         "--conditions", EVERY_CONDITION],
    "classify-dented-table": ["classify", "--weight", DENTED,
                              "--conditions", EVERY_CONDITION],
}


def run_example(name, workdir):
    """(exit code, stdout bytes, CSV bytes or None) of one example, with
    its CSV written under workdir."""
    csv_path = Path(workdir) / "verdicts.csv"
    argv = [str(csv_path) if a == CSV else a for a in EXAMPLES[name]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    csv = csv_path.read_bytes() if CSV in EXAMPLES[name] else None
    return code, buf.getvalue().encode("utf-8"), csv


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_output_is_unchanged(name, tmp_path):
    code, out, csv = run_example(name, tmp_path)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[name]
    assert out == (GOLDEN / ("%s.json" % name)).read_bytes()
    if csv is not None:
        assert csv == (GOLDEN / ("%s.csv" % name)).read_bytes()


def _moved_paths(old, new, path="$"):
    """(path, old, new) for each JSON path whose value differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            sub = "%s.%s" % (path, key)
            if key in old and key in new:
                yield from _moved_paths(old[key], new[key], sub)
            else:
                yield sub, old.get(key, "(absent)"), new.get(key, "(absent)")
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for i, (o, n) in enumerate(zip(old, new)):
            yield from _moved_paths(o, n, "%s[%d]" % (path, i))
    elif old != new or type(old) is not type(new):
        yield path, old, new


def _report_moved(path, data):
    """Print what rewriting path with data changes."""
    if not path.exists():
        print("%s: new file" % path.name)
        return
    stored = path.read_bytes()
    if stored == data:
        return
    if path.suffix != ".json":
        print("%s: bytes differ" % path.name)
        return
    moved = list(_moved_paths(json.loads(stored), json.loads(data)))
    if not moved:
        print("%s: same values, bytes differ" % path.name)
    for where, old, new in moved:
        print("%s: %s: %s -> %s" % (path.name, where, json.dumps(old),
                                    json.dumps(new)))


def regenerate():
    """Rerun every example and rewrite its golden files, first printing
    the JSON paths whose values moved."""
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    files = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(EXAMPLES):
            codes[name], out, csv = run_example(name, workdir)
            files[GOLDEN / ("%s.json" % name)] = out
            if csv is not None:
                files[GOLDEN / ("%s.csv" % name)] = csv
    files[GOLDEN / "exit_codes.json"] = (
        json.dumps(codes, sort_keys=True, indent=2) + "\n").encode("utf-8")
    for path, data in files.items():
        _report_moved(path, data)
    for path, data in files.items():
        path.write_bytes(data)


if __name__ == "__main__":
    regenerate()
