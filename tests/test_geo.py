"""Geography: coordinates, distances, delays, city catalog."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geo import GeoPoint, default_catalog, haversine_km
from repro.geo.coords import propagation_delay_ms
from repro.rng import SeedTree


def test_geopoint_validation():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, 181.0)


def test_haversine_known_distance():
    la = GeoPoint(34.05, -118.24)
    ny = GeoPoint(40.71, -74.01)
    # LA - NYC great circle is about 3940 km.
    assert haversine_km(la, ny) == pytest.approx(3940, rel=0.02)


def test_haversine_zero_and_symmetry():
    a = GeoPoint(10.0, 20.0)
    b = GeoPoint(-30.0, 150.0)
    assert haversine_km(a, a) == 0.0
    assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))


@given(st.floats(min_value=-89, max_value=89),
       st.floats(min_value=-179, max_value=179),
       st.floats(min_value=-89, max_value=89),
       st.floats(min_value=-179, max_value=179))
def test_haversine_bounds_property(lat1, lon1, lat2, lon2):
    d = haversine_km(GeoPoint(lat1, lon1), GeoPoint(lat2, lon2))
    # No two points on Earth are farther apart than half the
    # circumference (~20015 km).
    assert 0.0 <= d <= 20016.0


def test_propagation_delay_floor_and_scale():
    a = GeoPoint(0, 0)
    assert propagation_delay_ms(a, a) == pytest.approx(0.05)
    b = GeoPoint(0, 10)  # ~1113 km
    d = propagation_delay_ms(a, b, inflation=1.0)
    assert d == pytest.approx(1113 / 200.0, rel=0.01)
    assert propagation_delay_ms(a, b, inflation=2.0) == pytest.approx(
        2 * d, rel=0.01)


def test_propagation_delay_rejects_deflation():
    with pytest.raises(ValueError):
        propagation_delay_ms(GeoPoint(0, 0), GeoPoint(1, 1), inflation=0.5)


def test_catalog_lookup():
    catalog = default_catalog()
    city = catalog.get("Los Angeles, US")
    assert city.country == "US"
    assert city.utc_offset_hours == -8
    assert catalog.get("Mumbai, IN").country == "IN"
    assert "Las Vegas, US" in catalog


def test_catalog_unknown_city():
    from repro.errors import ConfigError
    with pytest.raises(ConfigError):
        default_catalog().get("Atlantis, XX")


def test_catalog_filter():
    catalog = default_catalog()
    us = catalog.filter(country="US")
    assert len(us) > 30
    assert all(c.country == "US" for c in us)
    eu = catalog.filter(region="eu")
    assert all(c.region == "eu" for c in eu)


def test_catalog_sampling_weighted_and_seeded():
    catalog = default_catalog()
    rng1 = SeedTree(3).generator("cities")
    rng2 = SeedTree(3).generator("cities")
    s1 = [c.key for c in catalog.sample(rng1, k=10, replace=False)]
    s2 = [c.key for c in catalog.sample(rng2, k=10, replace=False)]
    assert s1 == s2
    assert len(set(s1)) == 10


def test_catalog_sample_validation():
    catalog = default_catalog().filter(country="BE")
    rng = SeedTree(3).generator("x")
    with pytest.raises(ValueError):
        catalog.sample(rng, k=0)
    with pytest.raises(ValueError):
        catalog.sample(rng, k=len(catalog) + 1, replace=False)


def test_nearest():
    catalog = default_catalog()
    near_vegas = catalog.nearest(GeoPoint(36.0, -115.0))
    assert near_vegas.name == "Las Vegas"


def test_region_cities_exist_for_all_paper_regions():
    from repro.cloud.regions import REGIONS
    catalog = default_catalog()
    for region in REGIONS.values():
        assert region.city_key in catalog, region.name
