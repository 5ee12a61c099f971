"""The report commands' stdout, byte for byte: ``darkstates``, ``spectrum`` and ``compare``.

``tests/data/reports.json`` maps each argv, joined by spaces, to the stdout it
printed: the three commands on every branch, at the defaults and at
``--g 0.5 --lam 2``. The benchmark's seed-0 reference, which
``test_golden.py`` checks, covers none of these commands.
"""

import json
from pathlib import Path

import pytest

from test_golden import _cli_stdout, pinned_on

REPORTS = json.loads((Path(__file__).resolve().parent / "data" / "reports.json").read_text())


@pytest.mark.parametrize("key", sorted(REPORTS))
def test_report_bytes(key):
    assert _cli_stdout(key.split()) == REPORTS[key], pinned_on()
