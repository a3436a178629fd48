"""Read the acceptance verdict lines of a pytest log, against their budgets.

The acceptance tests print one line per criterion, for example

    [criterion 1] PASS: all 99 closed-form cells exact ..., 42.5s
    [criterion 1, general-line cycles] FAIL (expected): form N+ell*(...) ...

This reader keeps each criterion's verdict and seconds beside its time
budget (60, 300 or 600 s, as the tests state them). It gates nothing: it
shows, for example, whether criterion 1 ran under 60 s on the host that
ran the tests.

    python3 bench/acceptance_log.py test_output.txt
"""

from __future__ import annotations

import json
import re
import sys

BUDGETS_S = {
    "criterion 1": 60.0,
    "criterion 2": 300.0,
    "criterion 3": 300.0,
    "criterion 4": 60.0,
    "criterion 5": 600.0,
    "criterion 6": 60.0,
    "criterion 7": 60.0,
}

_LINE = re.compile(r"^\[(?P<tag>criterion [^\]]+)\] (?P<verdict>PASS|FAIL(?: \(expected\))?): (?P<detail>.*)$")
_SECONDS = re.compile(r",\s*(\d+(?:\.\d+)?)s$")


def read_verdicts(text: str) -> list[dict]:
    """One entry per criterion tag, in first-seen order; a repeated line wins."""
    found: dict[str, dict] = {}
    for raw in text.splitlines():
        m = _LINE.match(raw.strip())
        if not m:
            continue
        tag = m["tag"]
        sec = _SECONDS.search(m["detail"])
        seconds = float(sec.group(1)) if sec else None
        budget = BUDGETS_S.get(tag)
        found[tag] = {
            "criterion": tag,
            "verdict": m["verdict"],
            "seconds": seconds,
            "budget_s": budget,
            "within_budget": None if seconds is None or budget is None else seconds < budget,
        }
    return list(found.values())


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: acceptance_log.py PYTEST_LOG")
    with open(sys.argv[1]) as fh:
        print(json.dumps(read_verdicts(fh.read()), indent=1))
