"""Economics: why the paper measured budget-capped server subsets.

The paper's deployment cost over USD 6,000/month, which forced three
regions onto partial server lists.  This bench reproduces the
economics: the projected bill of a full (every selected server,
every region) deployment vs the budget-capped one actually run, and a
live demonstration that a hard budget stops a campaign mid-flight.
"""

import pytest

from repro.cloud.billing import CostTracker
from repro.cloud.regions import PAPER_TABLE1_REGIONS
from repro.cloud.tiers import NetworkTier
from repro.core.orchestrator import Orchestrator
from repro.errors import BudgetExhaustedError
from repro.report.tables import TextTable
from repro.units import transferred_bytes

#: Per-test upload volume at the 100 Mbps cap for 15 s.
UPLOAD_BYTES_PER_TEST = transferred_bytes(95.0, 15.0)


def _monthly_bill(n_servers: int) -> float:
    """Projected 30-day bill for hourly coverage of *n_servers*."""
    costs = CostTracker()
    n_vms = Orchestrator.vms_needed(n_servers)
    costs.charge_vm_hours(0.095 * n_vms, 30 * 24)
    tests = n_servers * 24 * 30
    costs.charge_egress(tests * UPLOAD_BYTES_PER_TEST,
                        NetworkTier.PREMIUM)
    costs.charge_storage(tests * 2_000_000, 1.0)
    return costs.total_usd


def _evaluate(pipeline):
    rows = []
    full_total = 0.0
    capped_total = 0.0
    for region in PAPER_TABLE1_REGIONS:
        selection = pipeline.topology_selection(region)
        plan = pipeline.topology_plan(region)
        full = _monthly_bill(len(selection.selected))
        capped = _monthly_bill(len(plan.server_ids))
        full_total += full
        capped_total += capped
        rows.append((region, len(selection.selected), full,
                     len(plan.server_ids), capped))
    return rows, full_total, capped_total


def test_cost_budget(benchmark, pipeline, emit):
    rows, full_total, capped_total = benchmark.pedantic(
        _evaluate, args=(pipeline,), rounds=1, iterations=1)
    table = TextTable(
        ["region", "selected", "full $/month", "measured",
         "capped $/month"],
        title="Economics: full vs budget-capped deployment "
              "(paper: >$6k/month)")
    for region, selected, full, measured, capped in rows:
        table.add_row([region, selected, f"{full:,.0f}",
                       measured, f"{capped:,.0f}"])
    table.add_row(["TOTAL", "", f"{full_total:,.0f}", "",
                   f"{capped_total:,.0f}"])
    emit("cost_budget", table.render())

    # The paper's economics: a full multi-region deployment costs
    # thousands of dollars per month, and capping saves real money.
    assert full_total > 2000
    assert capped_total < full_total

    # A hard budget stops spend mid-campaign.
    costs = CostTracker(budget_usd=10.0)
    with pytest.raises(BudgetExhaustedError):
        for _ in range(10_000):
            costs.charge_egress(UPLOAD_BYTES_PER_TEST,
                                NetworkTier.PREMIUM)
    assert costs.total_usd <= 10.0
