"""Pinned CLI outputs: a change that should leave every result as it was
must leave these bytes as they were, apart from the timing fields.

The data were made by an earlier commit of this code and are compared, not
regenerated: a change that means to alter an output updates them on purpose.
"""

import hashlib
import json
import re
from pathlib import Path

from pgk.cli import main

DATA = Path(__file__).resolve().parent / "data"
MS = re.compile(r'"ms(?:_total)?": [-+0-9.e]+(?:, )?')  # the timings, JSON key and value
NS = [*range(1, 601), 1944, 7854, 720720]


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, MS.sub("", out), MS.sub("", err)


def test_sweep_csv_matches_the_pinned_rows(capsys):
    code, out, err = run(capsys, ["sweep", "--max-n", "2000", "--extra", "2310", "--format", "csv"])
    assert code == 0
    got = [",".join(row.split(",")[:-1]) for row in out.splitlines()]  # drop the ms column
    want = (DATA / "sweep_2000_extra_2310.csv").read_text().splitlines()
    assert got[0] == want[0]
    for row, pinned in zip(got[1:], want[1:]):
        assert row == pinned, f"n={pinned.split(',')[0]}: {row!r} != {pinned!r}"
    assert len(got) == len(want)
    assert json.loads(err) == {
        "bound_strict": [1050, 2310],
        "cases": {"case-i": 672, "case-ii-bound": 82, "case-iii": 431, "prime-power": 333,
                  "r3-exact": 482},
        "mismatches": [], "oracle_checked": 0, "rows": 2000, "schema": "pgk/1", "summary": True,
    }


def test_reports_match_the_pinned_digest(capsys):
    # one SHA-256 over the command line, exit code, stdout and stderr of each run
    h = hashlib.sha256()
    commands = [["example2310"], ["example2310", "--json"]]
    for n in NS:
        commands += [
            ["separators", str(n), "--all-min", "--witness", "--json"],
            ["separators", str(n)],
            ["kappa", str(n), "--json"],
            ["kappa", str(n)],
        ]
    for argv in commands:
        code, out, err = run(capsys, argv)
        h.update(f"{' '.join(argv)} -> {code}\n{out}\n{err}\n".encode())
    assert h.hexdigest() == "ca910d90d5dd96d90365ed90b0bab8da0643bc36d07dda8e52689616503e410f"
