"""Seeded verify reports, pinned: a speed-up must not change any output.

`golden/verify_reports.json` holds every suite's report at seeds 0 and 3,
as `localcut verify` prints them, less `elapsed_s`. Each report here must
serialise to the same JSON text. The seed-0 reports are the session's
shared default reports, which the acceptance criteria read as well.
"""

import json
import os

import pytest

from localcut.verify import SUITES

with open(os.path.join(os.path.dirname(__file__), "golden", "verify_reports.json"),
          encoding="utf-8") as fh:
    GOLDEN = json.load(fh)

CASES = [(int(seed), suite) for seed, reports in GOLDEN.items() for suite in reports]


def as_json(report: dict) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "elapsed_s"},
                      indent=2, sort_keys=True)


def test_golden_file_covers_every_suite():
    assert sorted(GOLDEN) == ["0", "3"]
    assert all(sorted(reports) == sorted(SUITES) for reports in GOLDEN.values())


@pytest.mark.parametrize("seed,suite", CASES)
def test_report_matches_golden(seed, suite, default_reports):
    report = default_reports[suite] if seed == 0 else SUITES[suite](seed=seed)
    assert as_json(report) == as_json(GOLDEN[str(seed)][suite])
