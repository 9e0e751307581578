"""Dataset export/import and the text dashboard."""

import numpy as np
import pytest

from repro.cloud.tiers import NetworkTier
from repro.core.campaign import CampaignDataset
from repro.core.export import (SCHEMA_VERSION, dataset_digest,
                               export_dataset, load_dataset)
from repro.core.records import MeasurementRecord, ServerMeta
from repro.errors import AnalysisError
from repro.report.dashboard import render_dashboard
from repro.simclock import CAMPAIGN_START
from repro.units import DAY, HOUR


def _dataset(days=2):
    dataset = CampaignDataset(CAMPAIGN_START, CAMPAIGN_START + days * DAY)
    for sid, base in (("s1", 400.0), ("s2", 250.0)):
        dataset.add_server_meta(ServerMeta(
            server_id=sid, asn=65000, sponsor="Net",
            city_key="Town, US", country="US", utc_offset_hours=-5,
            lat=40.0, lon=-75.0, business_type="isp"))
        for h in range(days * 24):
            down = base if h % 24 != 20 else base * 0.3
            dataset.record(MeasurementRecord(
                ts=CAMPAIGN_START + h * HOUR, region="us-east1",
                vm_name="vm", server_id=sid, tier=NetworkTier.PREMIUM,
                download_mbps=down, upload_mbps=95.0, latency_ms=21.5,
                download_loss_rate=1.5e-4, upload_loss_rate=2e-4))
    return dataset


# ----------------------------------------------------------------------
# export / import


def test_export_roundtrip(tmp_path):
    dataset = _dataset()
    manifest = export_dataset(dataset, tmp_path / "out")
    assert manifest.exists()
    assert (tmp_path / "out" / "measurements.csv").exists()
    assert (tmp_path / "out" / "servers.json").exists()

    loaded = load_dataset(tmp_path / "out")
    assert len(loaded) == len(dataset)
    assert set(loaded.servers) == set(dataset.servers)
    assert loaded.start_ts == dataset.start_ts
    for pair in dataset.pairs():
        original = dataset.table.series(pair)
        restored = loaded.table.series(pair)
        assert np.allclose(original["ts"], restored["ts"])
        assert np.allclose(original["download"], restored["download"],
                           atol=1e-3)
        assert np.allclose(original["latency"], restored["latency"],
                           atol=1e-3)


def test_export_roundtrip_preserves_analysis(tmp_path):
    from repro.core.congestion import detect
    dataset = _dataset()
    export_dataset(dataset, tmp_path / "out")
    loaded = load_dataset(tmp_path / "out")
    original = detect(dataset)
    restored = detect(loaded)
    assert restored.congested_day_fraction == pytest.approx(
        original.congested_day_fraction)
    assert len(restored.events) == len(original.events)


def test_load_rejects_missing_and_bad(tmp_path):
    with pytest.raises(AnalysisError):
        load_dataset(tmp_path / "missing")
    out = tmp_path / "bad"
    export_dataset(_dataset(), out)
    manifest = out / "manifest.json"
    manifest.write_text(manifest.read_text().replace(
        f'"schema_version": {SCHEMA_VERSION}', '"schema_version": 99'))
    with pytest.raises(AnalysisError):
        load_dataset(out)


def test_load_accepts_schema_v1(tmp_path):
    """A v1 export (no lost.csv, no retried counter) still loads."""
    out = tmp_path / "v1"
    export_dataset(_dataset(), out)
    manifest = out / "manifest.json"
    manifest.write_text(manifest.read_text().replace(
        f'"schema_version": {SCHEMA_VERSION}', '"schema_version": 1'))
    (out / "lost.csv").unlink()
    loaded = load_dataset(out)
    assert len(loaded) == len(_dataset())
    assert loaded.lost == []
    assert loaded.retried_tests == 0


def test_export_records_lost_and_digest(tmp_path):
    dataset = _dataset()
    dataset.mark_lost(CAMPAIGN_START + 3 * HOUR, "us-east1", "vm",
                      "s1", "preemption")
    dataset.retried_tests = 4
    digest = dataset_digest(dataset)
    assert digest == dataset_digest(dataset)  # stable
    export_dataset(dataset, tmp_path / "out")
    loaded = load_dataset(tmp_path / "out")
    assert loaded.lost == dataset.lost
    assert loaded.retried_tests == 4
    # The digest survives an export/load round trip.
    assert dataset_digest(loaded) == digest
    # ... and is sensitive to fault tagging.
    loaded.mark_lost(CAMPAIGN_START + 5 * HOUR, "us-east1", "vm",
                     "s2", "upload")
    assert dataset_digest(loaded) != digest


# ----------------------------------------------------------------------
# dashboard


def test_dashboard_renders_panels():
    dataset = _dataset()
    text = render_dashboard(dataset)
    assert "# CLASP campaign dashboard" in text
    assert "## us-east1" in text
    assert "download throughput distribution" in text
    # The daily 20:00 dip makes both servers congested offenders.
    assert "Town-Net" in text
    assert "congested s-hours" in text


def test_dashboard_empty_dataset():
    empty = CampaignDataset(CAMPAIGN_START, CAMPAIGN_START + DAY)
    text = render_dashboard(empty)
    assert "# CLASP campaign dashboard" in text
    assert "measurements: 0" in text
