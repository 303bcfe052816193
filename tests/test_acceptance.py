"""
Desk-scale acceptance battery.

One test per row of ``acceptance.ALL_CRITERIA``, named after the criterion's
title, so a criterion added to the table joins the battery here unedited.
Each runs its criterion at its pinned tolerances and prints a one-line
verdict.  The slow sweeps (relaxation, drift-flux limit, decay window,
low-Mach) dominate the suite runtime.  Every test here carries the
``acceptance`` marker, so ``pytest -m "not acceptance"`` runs the fast tier.
"""

import re

import pytest

from driftflow import acceptance

pytestmark = pytest.mark.acceptance


def _battery_test(criterion):
    def test():
        res = criterion()
        print()
        print(res.line())
        for key, val in res.details.items():
            print(f"    {key}: {val}")
        assert res.passed, f"{res.name} failed: {res.details}"

    test.__name__ = "test_" + re.sub(r"\W+", "_", criterion.title.lower())
    test.__doc__ = criterion.__doc__
    return test


for _name, _criterion in acceptance.ALL_CRITERIA:
    _test = _battery_test(_criterion)
    assert _test.__name__ not in globals(), f"two criteria share the title of {_name}"
    globals()[_test.__name__] = _test
