"""Byte-identity of CLI reports against `golden_reports.json`.

Each entry holds an argv, its exit code and the exact stdout it printed when
the file was written: the README's commands and the shipped fixture requests
of every report-producing subcommand.  Seeded commands carry an explicit
`--seed 0`, so `PPCAT_SEED` cannot change them.  Any change to a report,
down to whitespace or key order, fails here.
"""

import io
import json
from pathlib import Path

import pytest

from ppcat.cli import run

GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text("utf-8"))


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_report_is_byte_identical(entry):
    buf = io.StringIO()
    code = run(list(entry["argv"]), stdout=buf)
    assert code == entry["exit"]
    assert buf.getvalue() == entry["stdout"]
