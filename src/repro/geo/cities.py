"""City catalog used to place PoPs, cloud regions, and test servers.

The catalog is a curated list of real metros with approximate
coordinates and standard-time UTC offsets.  The topology generator
samples from it (population-weighted) when placing ASes, interdomain
links, and speed test servers; the differential-based experiments use
the non-U.S. entries (Europe, India, Australia, ...) to reproduce the
paper's globe-spanning server selection for europe-west1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..errors import ConfigError, ValidationError
from .coords import GeoPoint

__all__ = ["City", "CityCatalog", "default_catalog"]


@dataclass(frozen=True)
class City:
    """A metro area where network infrastructure can be placed."""

    name: str
    country: str           # ISO-3166 alpha-2
    region: str            # coarse region label: us-west, us-east, eu, apac, ...
    point: GeoPoint
    utc_offset_hours: float
    population_weight: float = 1.0  # relative sampling weight

    @property
    def key(self) -> str:
        """Stable identifier, e.g. ``"Los Angeles, US"``."""
        return f"{self.name}, {self.country}"


# name, country, region, lat, lon, utc offset (standard time), weight
_CITY_ROWS = [
    # --- U.S. West ---
    ("Seattle", "US", "us-west", 47.61, -122.33, -8, 4.0),
    ("Portland", "US", "us-west", 45.52, -122.68, -8, 2.5),
    ("The Dalles", "US", "us-west", 45.59, -121.18, -8, 0.3),
    ("San Francisco", "US", "us-west", 37.77, -122.42, -8, 5.0),
    ("San Jose", "US", "us-west", 37.34, -121.89, -8, 4.0),
    ("Sacramento", "US", "us-west", 38.58, -121.49, -8, 2.0),
    ("Fresno", "US", "us-west", 36.74, -119.78, -8, 1.2),
    ("Los Angeles", "US", "us-west", 34.05, -118.24, -8, 8.0),
    ("San Diego", "US", "us-west", 32.72, -117.16, -8, 3.0),
    ("Las Vegas", "US", "us-west", 36.17, -115.14, -8, 2.5),
    ("Reno", "US", "us-west", 39.53, -119.81, -8, 0.8),
    ("Phoenix", "US", "us-west", 33.45, -112.07, -7, 3.5),
    ("Tucson", "US", "us-west", 32.22, -110.97, -7, 1.0),
    ("Salt Lake City", "US", "us-west", 40.76, -111.89, -7, 1.5),
    ("Boise", "US", "us-west", 43.62, -116.20, -7, 0.7),
    ("Denver", "US", "us-central", 39.74, -104.99, -7, 3.0),
    ("Albuquerque", "US", "us-west", 35.08, -106.65, -7, 0.9),
    ("Spokane", "US", "us-west", 47.66, -117.43, -8, 0.6),
    ("Anchorage", "US", "us-west", 61.22, -149.90, -9, 0.3),
    ("Honolulu", "US", "us-west", 21.31, -157.86, -10, 0.5),
    # --- U.S. Central ---
    ("Dallas", "US", "us-central", 32.78, -96.80, -6, 6.0),
    ("Houston", "US", "us-central", 29.76, -95.37, -6, 5.0),
    ("Austin", "US", "us-central", 30.27, -97.74, -6, 2.0),
    ("San Antonio", "US", "us-central", 29.42, -98.49, -6, 1.8),
    ("Oklahoma City", "US", "us-central", 35.47, -97.52, -6, 1.0),
    ("Kansas City", "US", "us-central", 39.10, -94.58, -6, 1.5),
    ("Council Bluffs", "US", "us-central", 41.26, -95.86, -6, 0.3),
    ("Omaha", "US", "us-central", 41.26, -95.93, -6, 0.9),
    ("Minneapolis", "US", "us-central", 44.98, -93.27, -6, 2.5),
    ("St. Louis", "US", "us-central", 38.63, -90.20, -6, 1.8),
    ("Chicago", "US", "us-central", 41.88, -87.63, -6, 7.0),
    ("Milwaukee", "US", "us-central", 43.04, -87.91, -6, 1.0),
    ("Indianapolis", "US", "us-central", 39.77, -86.16, -5, 1.4),
    ("Memphis", "US", "us-central", 35.15, -90.05, -6, 1.0),
    ("New Orleans", "US", "us-central", 29.95, -90.07, -6, 0.9),
    ("Tulsa", "US", "us-central", 36.15, -95.99, -6, 0.7),
    ("Des Moines", "US", "us-central", 41.59, -93.62, -6, 0.6),
    ("Fargo", "US", "us-central", 46.88, -96.79, -6, 0.3),
    ("Wichita", "US", "us-central", 37.69, -97.34, -6, 0.5),
    ("Little Rock", "US", "us-central", 34.75, -92.29, -6, 0.5),
    # --- U.S. East ---
    ("New York", "US", "us-east", 40.71, -74.01, -5, 10.0),
    ("Newark", "US", "us-east", 40.74, -74.17, -5, 2.0),
    ("Philadelphia", "US", "us-east", 39.95, -75.17, -5, 3.0),
    ("Boston", "US", "us-east", 42.36, -71.06, -5, 3.0),
    ("Washington", "US", "us-east", 38.91, -77.04, -5, 4.0),
    ("Ashburn", "US", "us-east", 39.04, -77.49, -5, 2.0),
    ("Baltimore", "US", "us-east", 39.29, -76.61, -5, 1.2),
    ("Pittsburgh", "US", "us-east", 40.44, -79.99, -5, 1.2),
    ("Buffalo", "US", "us-east", 42.89, -78.88, -5, 0.7),
    ("Cleveland", "US", "us-east", 41.50, -81.69, -5, 1.2),
    ("Columbus", "US", "us-east", 39.96, -83.00, -5, 1.2),
    ("Cincinnati", "US", "us-east", 39.10, -84.51, -5, 1.1),
    ("Detroit", "US", "us-east", 42.33, -83.05, -5, 2.0),
    ("Atlanta", "US", "us-east", 33.75, -84.39, -5, 4.5),
    ("Charlotte", "US", "us-east", 35.23, -80.84, -5, 1.5),
    ("Raleigh", "US", "us-east", 35.78, -78.64, -5, 1.2),
    ("Moncks Corner", "US", "us-east", 33.20, -80.01, -5, 0.2),
    ("Charleston", "US", "us-east", 32.78, -79.93, -5, 0.6),
    ("Jacksonville", "US", "us-east", 30.33, -81.66, -5, 1.0),
    ("Orlando", "US", "us-east", 28.54, -81.38, -5, 1.5),
    ("Tampa", "US", "us-east", 27.95, -82.46, -5, 1.5),
    ("Miami", "US", "us-east", 25.76, -80.19, -5, 3.0),
    ("Nashville", "US", "us-east", 36.16, -86.78, -6, 1.2),
    ("Louisville", "US", "us-east", 38.25, -85.76, -5, 0.8),
    ("Richmond", "US", "us-east", 37.54, -77.44, -5, 0.8),
    ("Norfolk", "US", "us-east", 36.85, -76.29, -5, 0.6),
    ("Albany", "US", "us-east", 42.65, -73.75, -5, 0.5),
    ("Grand Rapids", "US", "us-east", 42.96, -85.66, -5, 0.5),
    ("Knoxville", "US", "us-east", 35.96, -83.92, -5, 0.5),
    ("Birmingham", "US", "us-east", 33.52, -86.80, -6, 0.7),
    # --- Europe ---
    ("London", "GB", "eu", 51.51, -0.13, 0, 6.0),
    ("Amsterdam", "NL", "eu", 52.37, 4.90, 1, 3.0),
    ("Brussels", "BE", "eu", 50.85, 4.35, 1, 1.5),
    ("St. Ghislain", "BE", "eu", 50.45, 3.82, 1, 0.2),
    ("Paris", "FR", "eu", 48.86, 2.35, 1, 5.0),
    ("Frankfurt", "DE", "eu", 50.11, 8.68, 1, 4.0),
    ("Berlin", "DE", "eu", 52.52, 13.40, 1, 2.5),
    ("Madrid", "ES", "eu", 40.42, -3.70, 1, 2.5),
    ("Milan", "IT", "eu", 45.46, 9.19, 1, 2.5),
    ("Zurich", "CH", "eu", 47.38, 8.54, 1, 1.2),
    ("Vienna", "AT", "eu", 48.21, 16.37, 1, 1.2),
    ("Warsaw", "PL", "eu", 52.23, 21.01, 1, 1.5),
    ("Stockholm", "SE", "eu", 59.33, 18.06, 1, 1.2),
    ("Dublin", "IE", "eu", 53.35, -6.26, 0, 1.0),
    ("Lisbon", "PT", "eu", 38.72, -9.14, 0, 1.0),
    ("Prague", "CZ", "eu", 50.08, 14.44, 1, 1.0),
    ("Bucharest", "RO", "eu", 44.43, 26.10, 2, 1.0),
    ("Athens", "GR", "eu", 37.98, 23.73, 2, 0.8),
    ("Helsinki", "FI", "eu", 60.17, 24.94, 2, 0.7),
    ("Oslo", "NO", "eu", 59.91, 10.75, 1, 0.7),
    # --- Asia-Pacific / rest of world (differential-based targets) ---
    ("Mumbai", "IN", "apac", 19.08, 72.88, 5.5, 4.0),
    ("Delhi", "IN", "apac", 28.70, 77.10, 5.5, 4.0),
    ("Bangalore", "IN", "apac", 12.97, 77.59, 5.5, 2.5),
    ("Chennai", "IN", "apac", 13.08, 80.27, 5.5, 1.8),
    ("Singapore", "SG", "apac", 1.35, 103.82, 8, 2.0),
    ("Tokyo", "JP", "apac", 35.68, 139.65, 9, 5.0),
    ("Seoul", "KR", "apac", 37.57, 126.98, 9, 3.0),
    ("Hong Kong", "HK", "apac", 22.32, 114.17, 8, 2.0),
    ("Sydney", "AU", "apac", -33.87, 151.21, 10, 2.5),
    ("Melbourne", "AU", "apac", -37.81, 144.96, 10, 2.0),
    ("Perth", "AU", "apac", -31.95, 115.86, 8, 0.8),
    ("Auckland", "NZ", "apac", -36.85, 174.76, 12, 0.7),
    ("Sao Paulo", "BR", "latam", -23.55, -46.63, -3, 3.0),
    ("Buenos Aires", "AR", "latam", -34.60, -58.38, -3, 1.8),
    ("Santiago", "CL", "latam", -33.45, -70.67, -4, 1.2),
    ("Mexico City", "MX", "latam", 19.43, -99.13, -6, 2.5),
    ("Toronto", "CA", "us-east", 43.65, -79.38, -5, 2.5),
    ("Vancouver", "CA", "us-west", 49.28, -123.12, -8, 1.5),
    ("Montreal", "CA", "us-east", 45.50, -73.57, -5, 1.5),
    ("Johannesburg", "ZA", "emea", -26.20, 28.05, 2, 1.2),
    ("Dubai", "AE", "emea", 25.20, 55.27, 4, 1.2),
    ("Istanbul", "TR", "emea", 41.01, 28.98, 3, 1.5),
    ("Tel Aviv", "IL", "emea", 32.09, 34.78, 2, 1.0),
]


class CityCatalog:
    """An indexed collection of :class:`City` records with sampling."""

    def __init__(self, cities: Sequence[City]) -> None:
        if not cities:
            raise ConfigError("city catalog cannot be empty")
        self._cities: List[City] = list(cities)
        self._by_key: Dict[str, City] = {}
        for city in self._cities:
            if city.key in self._by_key:
                raise ConfigError(f"duplicate city key: {city.key}")
            self._by_key[city.key] = city

    def __len__(self) -> int:
        return len(self._cities)

    def __iter__(self) -> Iterator[City]:
        return iter(self._cities)

    def __contains__(self, key: str) -> bool:
        return key in self._by_key

    def get(self, key: str) -> City:
        """Return the city with the given ``"Name, CC"`` key."""
        try:
            return self._by_key[key]
        except KeyError:
            raise ConfigError(f"unknown city: {key!r}") from None

    def filter(self, country: Optional[str] = None,
               region: Optional[str] = None) -> "CityCatalog":
        """Return a sub-catalog restricted by country and/or region."""
        chosen = [c for c in self._cities
                  if (country is None or c.country == country)
                  and (region is None or c.region == region)]
        if not chosen:
            raise ConfigError(
                f"no cities match country={country!r} region={region!r}")
        return CityCatalog(chosen)

    def sample(self, rng: np.random.Generator, k: int = 1,
               replace: bool = True) -> List[City]:
        """Sample *k* cities weighted by population weight."""
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if not replace and k > len(self._cities):
            raise ValidationError(
                f"cannot sample {k} distinct cities from {len(self._cities)}")
        weights = np.array([c.population_weight for c in self._cities], dtype=float)
        weights /= weights.sum()
        idx = rng.choice(len(self._cities), size=k, replace=replace, p=weights)
        return [self._cities[i] for i in idx]

    def nearest(self, point: GeoPoint) -> City:
        """Return the catalog city geographically closest to *point*."""
        return min(self._cities, key=lambda c: c.point.distance_km(point))


def default_catalog() -> CityCatalog:
    """Build the default worldwide catalog used by the experiments."""
    cities = [
        City(name=name, country=cc, region=region,
             point=GeoPoint(lat, lon),
             utc_offset_hours=float(off), population_weight=w)
        for name, cc, region, lat, lon, off, w in _CITY_ROWS
    ]
    return CityCatalog(cities)
