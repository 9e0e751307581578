"""Billing and storage services."""

import pytest

from repro.cloud.billing import CostTracker, PriceBook
from repro.cloud.storage import StorageService
from repro.cloud.tiers import NetworkTier
from repro.errors import BudgetExhaustedError, ConfigError, StorageError
from repro.units import GB


def test_pricebook_egress_by_tier():
    prices = PriceBook()
    prem = prices.egress_usd(10 * GB, NetworkTier.PREMIUM)
    std = prices.egress_usd(10 * GB, NetworkTier.STANDARD)
    assert prem == pytest.approx(1.20)
    assert std == pytest.approx(0.85)
    assert std < prem  # the standard tier is the discount tier


def test_pricebook_storage():
    prices = PriceBook()
    assert prices.storage_usd(100 * GB, months=2) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        prices.storage_usd(-1, 1)


def test_cost_tracker_accumulates_by_category():
    costs = CostTracker()
    costs.charge_vm_hours(0.095, 10)
    costs.charge_egress(5 * GB, NetworkTier.PREMIUM)
    costs.charge_storage(50 * GB, 1)
    spend = costs.spend
    assert spend["vm_hours"] == pytest.approx(0.95)
    assert spend["egress"] == pytest.approx(0.60)
    assert spend["storage"] == pytest.approx(1.0)
    assert costs.total_usd == pytest.approx(2.55)


def test_budget_enforced():
    costs = CostTracker(budget_usd=1.0)
    costs.charge_vm_hours(0.095, 10)  # $0.95
    with pytest.raises(BudgetExhaustedError):
        costs.charge_egress(10 * GB, NetworkTier.PREMIUM)
    # The refused charge leaves the spend untouched.
    assert costs.total_usd == pytest.approx(0.95)


def test_booked_egress_runs_out_at_the_same_charge():
    """Pricing a block's transfers up front and booking them in order
    spends exactly what one charge_egress per transfer spends, and a
    budget refuses the same transfer."""
    transfers = [3 * GB, 2 * GB, 4 * GB, 1 * GB]
    prices = PriceBook()
    assert prices.egress_usd_each(transfers, NetworkTier.PREMIUM) == [
        prices.egress_usd(n, NetworkTier.PREMIUM) for n in transfers]
    per_transfer = CostTracker(budget_usd=1.0)
    booked = CostTracker(budget_usd=1.0)
    with pytest.raises(BudgetExhaustedError):
        for n_bytes in transfers:
            per_transfer.charge_egress(n_bytes, NetworkTier.PREMIUM)
    with pytest.raises(BudgetExhaustedError):
        booked.book_egress(prices.egress_usd_each(transfers,
                                                  NetworkTier.PREMIUM))
    assert booked.spend == per_transfer.spend
    assert booked.spend["egress"] == pytest.approx(0.60)
    with pytest.raises(ValueError):
        prices.egress_usd_each([1.0, -1.0], NetworkTier.PREMIUM)


def test_budget_validation():
    with pytest.raises(ConfigError):
        CostTracker(budget_usd=0)


def test_charge_validation():
    costs = CostTracker()
    with pytest.raises(ValueError):
        costs.charge_vm_hours(0.1, -1)


def test_paper_scale_monthly_cost():
    """The paper spent >$6k/month; our price book should be in that
    ballpark for the paper's deployment shape."""
    costs = CostTracker()
    # ~30 measurement VMs around the clock for a month.
    costs.charge_vm_hours(0.095, 30 * 24 * 30)
    # ~450 servers x 24 tests/day x 30 days x ~188 MB of upload each.
    n_tests = 450 * 24 * 30
    costs.charge_egress(n_tests * 187_500_000 * 0.95,
                        NetworkTier.PREMIUM)
    assert costs.total_usd > 6000


# ----------------------------------------------------------------------
# storage


def test_bucket_crud():
    service = StorageService()
    bucket = service.create_bucket("clasp-results", "us-west1")
    bucket.upload("vm1/1000.tar.gz", 5_000_000, ts=1000.0)
    bucket.upload("vm1/2000.tar.gz", 6_000_000, ts=2000.0)
    assert len(bucket) == 2
    assert bucket.total_bytes == 11_000_000
    assert bucket.get("vm1/1000.tar.gz").size_bytes == 5_000_000
    assert [o.key for o in bucket.list("vm1/")] == \
        ["vm1/1000.tar.gz", "vm1/2000.tar.gz"]
    with pytest.raises(StorageError):
        bucket.get("nope")


def test_bucket_overwrite_replaces():
    service = StorageService()
    bucket = service.create_bucket("b", "us-east1")
    bucket.upload("k", 100, ts=1.0)
    bucket.upload("k", 300, ts=2.0)
    assert bucket.total_bytes == 300


def test_bucket_validation():
    service = StorageService()
    bucket = service.create_bucket("b", "us-east1")
    with pytest.raises(StorageError):
        bucket.upload("", 10, 0.0)
    with pytest.raises(StorageError):
        bucket.upload("k", -1, 0.0)
    with pytest.raises(StorageError):
        service.create_bucket("b", "us-east1")
    with pytest.raises(StorageError):
        service.bucket("missing")


def test_storage_billing_integration():
    costs = CostTracker()
    service = StorageService(costs)
    bucket = service.create_bucket("b", "us-east1")
    bucket.upload("k", int(100 * GB), ts=0.0)
    charged = service.charge_monthly_storage(months=1.0)
    assert charged == pytest.approx(2.0)
    assert costs.total_usd == pytest.approx(2.0)
