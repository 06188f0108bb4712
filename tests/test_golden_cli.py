"""Golden outputs of the seven README command-line examples, and of two
classify runs that pin every condition's report.

Each example's stdout and exit code, and the CSV file that the classify
example writes, are stored under tests/golden/ and compared byte for
byte through cli.main. A change that alters any of them must regenerate
the files on purpose and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_cli.py
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
# log (p!)^2 for p <= 128 with log M_40 raised by 0.5: not log-convex, so
# mg takes its brute-force split, and table-backed
DENTED = json.dumps({"kind": "table", "params": {"log_values": [
    2.0 * math.lgamma(p + 1) + (0.5 if p == 40 else 0.0)
    for p in range(129)]}})
EVERY_CONDITION = ("lc,dc,mg,gamma,gamma1,gamma2,gamma_r(3),beta2,beta2_0,"
                   "beta2_1,gamma_r(2.5)")

EXAMPLES = {
    "classify": ["classify", "--weight", GEVREY3, "--horizon", "512",
                 "--csv", CSV],
    "interpolate": ["interpolate", "--weight",
                    '{"kind":"qgevrey","params":{"q":2.0}}'],
    "seminorm": ["seminorm", "--weight", GEVREY2, "--function", FLAT0,
                 "--order-cap", "4"],
    "moments": ["moments", "--function", FLAT0, "--max-order", "6",
                "--apply", "fold", "--apply", "sqrt_sub"],
    "solve": ["solve", "--weight", GEVREY3, "--target", "[1.0, 0.5, 2.0]",
              "--membership"],
    "borel-ritt": ["borel-ritt", "--weight", GEVREY3,
                   "--entries", "[1.0, [0.0, 1.0], -0.5]"],
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


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(EXAMPLES):
            codes[name], out, csv = run_example(name, workdir)
            (GOLDEN / ("%s.json" % name)).write_bytes(out)
            if csv is not None:
                (GOLDEN / ("%s.csv" % name)).write_bytes(csv)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
