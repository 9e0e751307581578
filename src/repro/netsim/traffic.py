"""Time-varying background traffic on links.

Each link direction carries a :class:`UtilizationModel`: a base load
plus one or more diurnal *bumps* (raised-cosine humps centred on a local
hour), a weekend factor, and reproducible per-hour noise.  The model is
deterministic given the seed tree, so re-running a campaign reproduces
the same congestion events.

The paper's measurement window is the 2020 pandemic: access-ISP
interconnects see both the classic FCC evening peak (7-11 pm local) and
a daytime surge from telecommuting/remote learning.  The generator
(:mod:`repro.netsim.generator`) assigns *congested* profiles (peak
utilization above capacity) to a fixed fraction of interconnects, which
is what produces the 30-70 % of ISPs with detectable congestion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..rng import SeedTree
from ..simclock import is_weekend
from ..units import HOUR
from ..errors import ValidationError

__all__ = ["DiurnalBump", "DiurnalProfile", "UtilizationModel"]


@dataclass(frozen=True)
class DiurnalBump:
    """One raised-cosine load hump.

    ``amplitude`` adds to utilization at the hump centre; the hump spans
    ``+- width_hours`` around ``center_hour`` (in the link's local time)
    and is periodic over the 24-hour day.
    """

    center_hour: float
    width_hours: float
    amplitude: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.center_hour < 24.0:
            raise ValidationError(f"center_hour out of range: {self.center_hour}")
        if self.width_hours <= 0:
            raise ValidationError(f"width_hours must be positive: {self.width_hours}")

    def value(self, local_hour: float) -> float:
        """Contribution of this bump at a (fractional) local hour."""
        delta = abs(local_hour - self.center_hour)
        delta = min(delta, 24.0 - delta)  # periodic distance on the day
        if delta >= self.width_hours:
            return 0.0
        return self.amplitude * 0.5 * (1.0 + math.cos(math.pi * delta / self.width_hours))


#: The FCC's peak-use window is 7 pm - 11 pm local time; we centre the
#: evening bump there.
EVENING_PEAK = 21.0


@dataclass(frozen=True)
class DiurnalProfile:
    """Shape of a link direction's background load (before noise)."""

    base: float
    bumps: Tuple[DiurnalBump, ...] = ()
    weekend_factor: float = 0.9
    noise_sigma: float = 0.02
    utc_offset_hours: float = 0.0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValidationError(f"base utilization must be >= 0: {self.base}")
        if self.noise_sigma < 0:
            raise ValidationError(f"noise_sigma must be >= 0: {self.noise_sigma}")

    def mean_utilization(self, ts: float) -> float:
        """Noise-free utilization at simulated time *ts* (UTC seconds)."""
        local = (ts / HOUR + self.utc_offset_hours) % 24.0
        load = self.base + sum(b.value(local) for b in self.bumps)
        if is_weekend(ts, self.utc_offset_hours):
            load *= self.weekend_factor
        return max(0.0, load)

    @staticmethod
    def quiet(base: float = 0.25, utc_offset_hours: float = 0.0,
              noise_sigma: float = 0.02) -> "DiurnalProfile":
        """A healthy link: mild evening bump, never near capacity."""
        return DiurnalProfile(
            base=base,
            bumps=(DiurnalBump(EVENING_PEAK, 5.0, 0.20),),
            utc_offset_hours=utc_offset_hours,
            noise_sigma=noise_sigma,
        )

class UtilizationModel:
    """Per-(link, direction) utilization with reproducible hourly noise.

    Each link direction's noise is a sequence of i.i.d. Gaussian hourly
    deviates drawn from a generator seeded by the link's identity, so
    two queries for the same (link, direction, hour) always agree and
    the realisation is independent of query order.  Deviates are drawn
    lazily, only up to the last hour read (see :meth:`noise_array`).
    """

    #: Wrap length of the hourly noise: hour ``h`` after the origin reads
    #: deviate ``h % NOISE_HOURS``.  The campaign is 153 days = 3672
    #: hours; a year keeps every campaign hour distinct.  It bounds what
    #: a link direction can hold, not what it holds: only the hours read
    #: so far are drawn.
    NOISE_HOURS = 24 * 366
    #: Deviates drawn at a link direction's first read; each later
    #: extension doubles the drawn prefix (capped at :attr:`NOISE_HOURS`).
    FIRST_DRAW_HOURS = 24

    def __init__(self, seeds: SeedTree, origin_ts: float) -> None:
        self._seeds = seeds.child("utilization-noise")
        self._origin = float(origin_ts)
        self._profiles: Dict[Tuple[int, int], DiurnalProfile] = {}
        # (link, direction) -> drawn noise prefix, and the generator
        # positioned after it (None for a noiseless profile)
        self._noise: Dict[Tuple[int, int], np.ndarray] = {}
        self._noise_gens: Dict[Tuple[int, int],
                               Optional[np.random.Generator]] = {}
        self._default_profile = DiurnalProfile.quiet()
        self._version = 0

    @property
    def origin_ts(self) -> float:
        return self._origin

    @property
    def version(self) -> int:
        """Count of :meth:`set_profile` calls.

        Readers that memoize utilization-derived values compare it to
        detect stale entries.
        """
        return self._version

    def set_profile(self, link_id: int, direction: int,
                    profile: DiurnalProfile) -> None:
        """Assign the load shape of one link direction."""
        if direction not in (0, 1):
            raise ValidationError(f"direction must be 0 or 1, got {direction}")
        self._profiles[(link_id, direction)] = profile
        self._noise.pop((link_id, direction), None)
        self._noise_gens.pop((link_id, direction), None)
        self._version += 1

    def set_profile_both(self, link_id: int, profile: DiurnalProfile,
                         reverse: Optional[DiurnalProfile] = None) -> None:
        """Assign forward and (optionally different) reverse profiles."""
        self.set_profile(link_id, 0, profile)
        self.set_profile(link_id, 1, reverse if reverse is not None else profile)

    def profile(self, link_id: int, direction: int) -> DiurnalProfile:
        return self._profiles.get((link_id, direction), self._default_profile)

    def noise_array(self, link_id: int, direction: int,
                    hours: int) -> np.ndarray:
        """The drawn per-hour noise of one link direction, at least
        ``min(hours, NOISE_HOURS)`` deviates long.

        The array is a prefix of the link direction's realisation; entry
        ``h`` is the deviate of hour ``h`` (mod :attr:`NOISE_HOURS`) and
        never changes.  A later read past its end draws further into a
        *new* array, so a caller holding this one must fetch again before
        indexing past ``len()``.  Exposed (read-only by convention) for
        the vectorized batch path, which indexes many hours at once;
        mutating the returned array would desynchronise scalar and batch
        evaluation.
        """
        key = (link_id, direction)
        arr = self._noise.get(key)
        if arr is not None and len(arr) >= hours:
            return arr
        sigma = self.profile(link_id, direction).noise_sigma
        if arr is None:
            # Intentional re-derivation: set_profile() drops the drawn
            # prefix, and the stream restarts from the same label.
            arr = np.zeros(0)
            self._noise_gens[key] = (
                self._seeds.generator(f"link-{link_id}-dir-{direction}",
                                      allow_reuse=True)
                if sigma > 0 else None)
        size = len(arr) or self.FIRST_DRAW_HOURS
        while size < hours:
            size *= 2
        size = min(size, self.NOISE_HOURS)
        if size > len(arr):
            # Chunked draws continue one stream: the prefix equals the
            # first `size` deviates of one normal(0, sigma, NOISE_HOURS).
            gen = self._noise_gens[key]
            more = (gen.normal(0.0, sigma, size=size - len(arr))
                    if gen is not None else np.zeros(size - len(arr)))
            arr = self._noise[key] = np.concatenate((arr, more))
        return arr

    def utilization(self, link_id: int, direction: int, ts: float) -> float:
        """Background utilization fraction at *ts* (can exceed 1.0)."""
        profile = self.profile(link_id, direction)
        mean = profile.mean_utilization(ts)
        if profile.noise_sigma <= 0:
            return mean
        hour_idx = int((ts - self._origin) // HOUR) % self.NOISE_HOURS
        noise = self._noise.get((link_id, direction))
        if noise is None or hour_idx >= len(noise):
            noise = self.noise_array(link_id, direction, hour_idx + 1)
        return max(0.0, mean + float(noise[hour_idx]))
