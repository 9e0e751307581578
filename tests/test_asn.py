"""AS model and relationship primitives."""

import pytest

from repro.netsim.asn import AS, ASRelationship, ASType, RelationshipKind


def test_as_validation():
    with pytest.raises(ValueError):
        AS(asn=0, name="bad", as_type=ASType.ACCESS_ISP)
    with pytest.raises(ValueError):
        AS(asn=-5, name="bad", as_type=ASType.ACCESS_ISP)


def test_as_org_defaults_to_name():
    a = AS(asn=10, name="Example Net", as_type=ASType.ACCESS_ISP)
    assert a.org == "Example Net"
    b = AS(asn=11, name="Example Net", as_type=ASType.ACCESS_ISP,
           org="Example Holdings")
    assert b.org == "Example Holdings"


def test_as_classification_helpers():
    isp = AS(asn=1, name="isp", as_type=ASType.ACCESS_ISP)
    tier1 = AS(asn=2, name="t1", as_type=ASType.TIER1)
    transit = AS(asn=3, name="tr", as_type=ASType.TRANSIT)
    hosting = AS(asn=4, name="h", as_type=ASType.HOSTING)
    assert isp.is_eyeball and not isp.is_transit
    assert tier1.is_transit and not tier1.is_eyeball
    assert transit.is_transit
    assert not hosting.is_transit and not hosting.is_eyeball


def test_ipinfo_labels():
    assert ASType.ACCESS_ISP.ipinfo_label == "isp"
    assert ASType.TIER1.ipinfo_label == "isp"
    assert ASType.HOSTING.ipinfo_label == "hosting"
    assert ASType.EDUCATION.ipinfo_label == "education"
    assert ASType.CLOUD.ipinfo_label == "hosting"


def test_relationship_accessors():
    rel = ASRelationship(a=10, b=20,
                         kind=RelationshipKind.CUSTOMER_TO_PROVIDER)
    assert rel.other(10) == 20
    assert rel.other(20) == 10
    with pytest.raises(ValueError):
        rel.other(30)


def test_relationship_kind_reversal():
    assert RelationshipKind.PEER_TO_PEER.reversed() is \
        RelationshipKind.PEER_TO_PEER
    assert RelationshipKind.CUSTOMER_TO_PROVIDER.reversed() is \
        RelationshipKind.CUSTOMER_TO_PROVIDER
