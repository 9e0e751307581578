"""Prefix-to-AS mapping (CAIDA Routeviews pfx2as analog).

The dataset maps announced prefixes to origin ASNs via longest-prefix
match.  It is built from what networks *announce* (their address
blocks and per-PoP more-specifics), so - exactly like the real dataset
- an interdomain link interface numbered out of the other network's
space maps to the *address owner*, not the router operator.  That gap
is what bdrmap exists to close.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from ..netsim.addressing import Prefix, PrefixTrie
from ..netsim.topology import Topology
from ..errors import ValidationError

__all__ = ["Prefix2AS", "build_prefix2as"]

#: Memo sentinel: ``None`` is a valid (unrouted) lookup answer.
_UNSEEN = object()


class Prefix2AS:
    """Longest-prefix-match dataset: IP -> origin ASN.

    :meth:`lookup` memoizes its answer per IP (``None`` included); the
    memo is dropped by :meth:`add`, and a lookup that raises is never
    memoized.
    """

    def __init__(self) -> None:
        self._trie: PrefixTrie[int] = PrefixTrie()
        self._memo: Dict[int, Optional[int]] = {}
        self._memo_hits = 0
        self._memo_misses = 0

    def add(self, prefix: Prefix, asn: int) -> None:
        """Register an announced prefix."""
        if asn <= 0:
            raise ValidationError(f"ASN must be positive, got {asn}")
        self._trie.insert(prefix, asn)
        self._memo.clear()

    def lookup(self, ip: int) -> Optional[int]:
        """Origin ASN of the most-specific covering prefix, or None."""
        asn = self._memo.get(ip, _UNSEEN)
        if asn is not _UNSEEN:
            self._memo_hits += 1
            return asn
        self._memo_misses += 1
        asn = self._trie.lookup(ip)
        self._memo[ip] = asn
        return asn

    def take_memo_counts(self) -> Tuple[int, int]:
        """(hits, misses) of the lookup memo since the last take."""
        counts = (self._memo_hits, self._memo_misses)
        self._memo_hits = self._memo_misses = 0
        return counts

    def lookup_prefix(self, ip: int) -> Optional[Tuple[Prefix, int]]:
        """(prefix, ASN) of the most-specific match, or None."""
        return self._trie.longest_match(ip)

    def prefixes(self) -> Iterator[Tuple[Prefix, int]]:
        """Iterate all (prefix, origin ASN) entries."""
        return self._trie.items()

    def __len__(self) -> int:
        return len(self._trie)


def build_prefix2as(topology: Topology) -> Prefix2AS:
    """Build the dataset from every AS's announced prefixes."""
    dataset = Prefix2AS()
    for asn, as_obj in topology.ases.items():
        for prefix in as_obj.prefixes:
            dataset.add(prefix, asn)
    return dataset
