"""Pinned golden fixtures: the golden campaign shape, and the
congestion-detection dataset builder + serializer.

:data:`GOLDEN_SHAPE` is the campaign whose dataset digests
``tests/golden/digests.json`` pins; ``tests/test_golden.py`` checks
them and ``scripts/regen_golden.py`` writes them, both through
:func:`golden_pipeline`.

The dataset is built to exercise exactly the bucketing cases the
midnight-alignment fix changed: a campaign that starts at 06:00 UTC
(not midnight) measured against servers east of UTC (half-hour
offset), at UTC, and west of UTC (whose first local hours used to get
``day_index = -1`` under start-anchored bucketing).  The serialized
``detect()`` output is pinned in
``tests/golden/congestion_detection.json``; regenerate it with
``scripts/regen_golden.py`` only on an intentional behaviour change.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.cloud.tiers import NetworkTier
from repro.core.campaign import CampaignDataset
from repro.core.congestion import CongestionReport
from repro.core.records import MeasurementRecord, ServerMeta
from repro.experiments import Pipeline
from repro.simclock import CAMPAIGN_START
from repro.units import DAY, HOUR

#: The golden campaign: one region, an 8-server budget, two days.
GOLDEN_SHAPE: Dict[str, Any] = {"seed": 11, "scale": 0.05,
                                "regions": ("us-west1",), "budget": 8,
                                "days": 2}


def golden_pipeline(**build: Any) -> Pipeline:
    """The golden shape's pipeline; *build* adds ``faults``/``provider``."""
    return Pipeline(**GOLDEN_SHAPE, **build)


#: 06:00 UTC - NOT local midnight anywhere in the fixture - so the
#: old start-anchored bucketing would split every server's days at an
#: arbitrary local time.
FIXTURE_START = float(CAMPAIGN_START) + 6 * HOUR
FIXTURE_DAYS = 3

#: One server per timezone class the alignment fix has to get right.
FIXTURE_SERVERS = (("srv-east", 5.5), ("srv-utc", 0.0),
                   ("srv-west", -7.0))


def regression_dataset() -> CampaignDataset:
    """Hourly downloads collapsing at local hours 10-12, all servers."""
    dataset = CampaignDataset(FIXTURE_START,
                              FIXTURE_START + FIXTURE_DAYS * DAY)
    for server_id, offset in FIXTURE_SERVERS:
        dataset.add_server_meta(ServerMeta(
            server_id=server_id, asn=65000, sponsor="Fixture ISP",
            city_key=f"{server_id}-city, XX", country="XX",
            utc_offset_hours=offset, lat=0.0, lon=0.0,
            business_type="isp"))
    for hour in range(FIXTURE_DAYS * 24):
        ts = FIXTURE_START + hour * HOUR
        for server_id, offset in FIXTURE_SERVERS:
            local_hour = int((ts + offset * HOUR) // HOUR) % 24
            value = 80.0 if local_hour in (10, 11, 12) else 400.0
            dataset.record(MeasurementRecord(
                ts=ts, region="us-west1", vm_name="vm-1",
                server_id=server_id, tier=NetworkTier.PREMIUM,
                download_mbps=value + hour * 1e-3, upload_mbps=95.0,
                latency_ms=20.0, download_loss_rate=1e-4,
                upload_loss_rate=1e-4))
    return dataset


def serialize_report(report: CongestionReport) -> Dict[str, Any]:
    """JSON-stable form of a report (events, day records, pair hours)."""
    return {
        "threshold": report.threshold,
        "metric": report.metric,
        "day_records": [
            {"pair": list(record.pair), "day_index": record.day_index,
             "n_samples": record.n_samples, "t_max": record.t_max,
             "t_min": record.t_min}
            for record in report.day_records],
        "events": [
            {"pair": list(event.pair), "ts": event.ts,
             "local_hour": event.local_hour,
             "day_index": event.day_index, "v_h": event.v_h,
             "throughput_mbps": event.throughput_mbps,
             "day_peak_mbps": event.day_peak_mbps}
            for event in report.events],
        "pair_hours": {"/".join(pair): hours for pair, hours
                       in sorted(report.pair_hours.items())},
    }
