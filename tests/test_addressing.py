"""IPv4 addressing, prefixes, trie, and allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressingError
from repro.netsim.addressing import (
    Prefix,
    PrefixAllocator,
    PrefixTrie,
    format_ip,
    parse_ip,
)

ips = st.integers(min_value=0, max_value=2**32 - 1)


def test_parse_format_roundtrip():
    for text in ("0.0.0.0", "10.1.2.3", "255.255.255.255", "192.0.2.1"):
        assert format_ip(parse_ip(text)) == text


@given(ips)
def test_parse_format_roundtrip_property(ip):
    assert parse_ip(format_ip(ip)) == ip


@pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1",
                                 "a.b.c.d", "1..2.3", ""])
def test_parse_rejects_malformed(bad):
    with pytest.raises(AddressingError):
        parse_ip(bad)


def test_format_rejects_out_of_range():
    with pytest.raises(AddressingError):
        format_ip(-1)
    with pytest.raises(AddressingError):
        format_ip(2**32)


def test_prefix_parse_and_str():
    p = Prefix.parse("10.0.0.0/8")
    assert str(p) == "10.0.0.0/8"
    assert p.size == 2**24
    assert p.contains(parse_ip("10.255.0.1"))
    assert not p.contains(parse_ip("11.0.0.0"))


def test_prefix_rejects_host_bits():
    with pytest.raises(AddressingError):
        Prefix.parse("10.0.0.1/8")


def test_prefix_rejects_bad_length():
    with pytest.raises(AddressingError):
        Prefix(0, 33)


def test_prefix_hosts_skips_network_and_broadcast():
    p = Prefix.parse("192.0.2.0/30")
    hosts = list(p.hosts())
    assert hosts == [parse_ip("192.0.2.1"), parse_ip("192.0.2.2")]


def test_prefix_hosts_p2p_conventions():
    # /31 and /32 use every address.
    assert len(list(Prefix.parse("192.0.2.0/31").hosts())) == 2
    assert len(list(Prefix.parse("192.0.2.1/32").hosts())) == 1


def test_prefix_subnets():
    p = Prefix.parse("10.0.0.0/22")
    subs = list(p.subnets(24))
    assert len(subs) == 4
    assert subs[0] == Prefix.parse("10.0.0.0/24")
    assert subs[-1] == Prefix.parse("10.0.3.0/24")
    with pytest.raises(AddressingError):
        list(p.subnets(20))


# ----------------------------------------------------------------------
# trie


def test_trie_exact_and_lpm():
    trie = PrefixTrie()
    trie.insert(Prefix.parse("10.0.0.0/8"), "big")
    trie.insert(Prefix.parse("10.1.0.0/16"), "mid")
    trie.insert(Prefix.parse("10.1.2.0/24"), "small")
    assert trie.lookup(parse_ip("10.1.2.3")) == "small"
    assert trie.lookup(parse_ip("10.1.3.3")) == "mid"
    assert trie.lookup(parse_ip("10.9.9.9")) == "big"
    assert trie.lookup(parse_ip("11.0.0.1")) is None
    assert trie.exact(Prefix.parse("10.1.0.0/16")) == "mid"
    assert trie.exact(Prefix.parse("10.2.0.0/16")) is None
    assert len(trie) == 3


def test_trie_longest_match_returns_prefix():
    trie = PrefixTrie()
    trie.insert(Prefix.parse("10.1.0.0/16"), 7)
    hit = trie.longest_match(parse_ip("10.1.200.9"))
    assert hit == (Prefix.parse("10.1.0.0/16"), 7)


def test_trie_default_route():
    trie = PrefixTrie()
    trie.insert(Prefix(0, 0), "default")
    assert trie.lookup(parse_ip("203.0.113.9")) == "default"


def test_trie_replace_value():
    trie = PrefixTrie()
    p = Prefix.parse("10.0.0.0/8")
    trie.insert(p, 1)
    trie.insert(p, 2)
    assert trie.exact(p) == 2
    assert len(trie) == 1


def test_trie_items_complete():
    trie = PrefixTrie()
    prefixes = [Prefix.parse(t) for t in
                ("10.0.0.0/8", "10.128.0.0/9", "192.0.2.0/24", "0.0.0.0/0")]
    for i, p in enumerate(prefixes):
        trie.insert(p, i)
    assert {p for p, _v in trie.items()} == set(prefixes)


@st.composite
def prefix_strategy(draw):
    length = draw(st.integers(min_value=4, max_value=28))
    network = draw(ips) & (((1 << 32) - 1) << (32 - length))
    return Prefix(network & 0xFFFFFFFF, length)


@given(st.lists(prefix_strategy(), min_size=1, max_size=24), ips)
@settings(max_examples=120, deadline=None)
def test_trie_matches_linear_scan(prefixes, probe):
    """LPM must agree with a brute-force longest-match scan."""
    trie = PrefixTrie()
    table = {}
    for i, prefix in enumerate(prefixes):
        trie.insert(prefix, i)
        table[prefix] = i  # last insert wins, like the trie
    expected = None
    best_len = -1
    for prefix, value in table.items():
        if prefix.contains(probe) and prefix.length > best_len:
            best_len = prefix.length
            expected = value
    assert trie.lookup(probe) == expected


# ----------------------------------------------------------------------
# allocator


def test_allocator_alignment_and_disjointness():
    alloc = PrefixAllocator(Prefix.parse("10.0.0.0/16"))
    a = alloc.allocate(24)
    host = alloc.allocate_host()
    b = alloc.allocate(24)
    assert a == Prefix.parse("10.0.0.0/24")
    assert a.contains(host) is False
    assert not a.contains(b.network) and not b.contains(a.network)
    assert b.network % 256 == 0


def test_allocator_exhaustion():
    alloc = PrefixAllocator(Prefix.parse("10.0.0.0/30"))
    alloc.allocate(31)
    alloc.allocate(31)
    with pytest.raises(AddressingError):
        alloc.allocate(31)


def test_allocator_rejects_oversized_request():
    alloc = PrefixAllocator(Prefix.parse("10.0.0.0/16"))
    with pytest.raises(AddressingError):
        alloc.allocate(8)


@given(st.lists(st.integers(min_value=20, max_value=30),
                min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_allocator_never_overlaps_property(lengths):
    alloc = PrefixAllocator(Prefix.parse("10.0.0.0/12"))
    allocated = []
    for length in lengths:
        try:
            allocated.append(alloc.allocate(length))
        except AddressingError:
            break
    for i, a in enumerate(allocated):
        for b in allocated[i + 1:]:
            assert not a.contains(b.network)
            assert not b.contains(a.network)
