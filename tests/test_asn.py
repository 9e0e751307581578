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
