"""Diurnal load shapes the traffic, link-state and batch tests share."""

from __future__ import annotations

from repro.netsim.traffic import EVENING_PEAK, DiurnalBump, DiurnalProfile
from repro.units import DAY, HOUR


def evening_profile(utc_offset_hours: float = 0.0) -> DiurnalProfile:
    """Under-provisioned interconnect: evening peak exceeds capacity."""
    return DiurnalProfile(
        base=0.45, bumps=(DiurnalBump(EVENING_PEAK, 4.0, 0.75),),
        utc_offset_hours=utc_offset_hours, noise_sigma=0.04)


def daytime_profile(utc_offset_hours: float = 0.0) -> DiurnalProfile:
    """Telework surge: a midday peak plus a smaller evening one."""
    return DiurnalProfile(
        base=0.45,
        bumps=(DiurnalBump(13.0, 6.0, 0.70),
               DiurnalBump(EVENING_PEAK, 4.0, 0.70 * 0.6)),
        utc_offset_hours=utc_offset_hours, noise_sigma=0.04)


def peak_mean(profile: DiurnalProfile) -> float:
    """The maximum noise-free weekday utilization over the day."""
    return max(profile.mean_utilization(h * HOUR + 4 * DAY)
               for h in range(24))
