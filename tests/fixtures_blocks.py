"""Hand-built campaign test blocks for observers fed without an engine.

:func:`block_of` turns slot dicts into one
:class:`~repro.engine.events.TestBlock`: a dict with a ``reason`` is a
lost slot, any other is a completed test whose unspecified results take
fixed defaults.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.engine import ResultColumns, SlotColumns, TestBlock

#: Result values a completed slot takes unless its dict names them.
DEFAULTS: Dict[str, Any] = {
    "server_id": "srv-1", "attempts": 1, "latency_ms": 20.0,
    "download_mbps": 100.0, "upload_mbps": 95.0,
    "download_loss_rate": 1e-4, "upload_loss_rate": 1e-4,
    "upload_bytes": 1.0, "artefact_bytes": 1}


def block_of(*slots: Dict[str, Any], region: str = "us-west1",
             vm_name: str = "vm-1", tier: str = "premium",
             egress_usd: Any = None) -> TestBlock:
    """One lane-hour block with *slots* in order (each needs a ``ts``)."""
    slot_columns: List[List[Any]] = [[], [], []]
    results = ResultColumns(*[[] for _ in ResultColumns._fields])
    for slot in slots:
        row = {**DEFAULTS, **slot}
        slot_columns[0].append(row["ts"])
        slot_columns[1].append(row["server_id"])
        slot_columns[2].append(row.get("reason"))
        if row.get("reason") is None:
            row["server_ids"] = row["server_id"]
            for name, column in zip(ResultColumns._fields, results):
                column.append(row[name])
    return TestBlock(ts=slot_columns[0][0] if slots else 0.0,
                     region=region, vm_name=vm_name, tier=tier,
                     provider="gcp", slots=SlotColumns(*slot_columns),
                     results=results, egress_usd=egress_usd)
