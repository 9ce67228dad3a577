"""Acceptance battery: one test per criterion of the verification
registry (conetrace.verify), each printing one verdict line.

Each test prints its PASS/FAIL line directly to the terminal (bypassing
capture) before asserting, so the battery's verdicts are visible in any
pytest run.  `conetrace verify` runs the same registry on the numeric
bounds alone; here each criterion is also held to its wall-time budget.
"""

import pytest

from conetrace import verify


@pytest.mark.parametrize("criterion", sorted(verify.CRITERIA))
def test_criterion(capsys, criterion):
    v = verify.run(criterion)
    in_time = v.budget_s is None or v.elapsed_s <= v.budget_s
    budget = "" if v.budget_s is None else f" of {v.budget_s:.0f}s"
    detail = (f"{v.title}: " + "; ".join(str(m) for m in v.measurements)
              + f"; {v.elapsed_s:.0f}s{budget}")
    with capsys.disabled():
        print(f"\nACCEPTANCE {criterion}: "
              f"{'PASS' if v.passed and in_time else 'FAIL'} - {detail}")
    assert v.passed, detail
    assert in_time, detail
