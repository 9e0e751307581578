"""IPv4 addressing: parsing, prefixes, longest-prefix match, allocation.

Addresses are plain ``int`` values (0 .. 2**32-1) everywhere inside the
simulator; dotted-quad strings exist only at the presentation boundary.
The :class:`PrefixTrie` implements longest-prefix match, which backs the
CAIDA-style prefix-to-AS dataset (:mod:`repro.tools.prefix2as`) and
bdrmap's address-ownership tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

from ..errors import AddressingError

__all__ = [
    "parse_ip",
    "format_ip",
    "Prefix",
    "PrefixTrie",
    "PrefixAllocator",
]

_MAX_IP = (1 << 32) - 1

V = TypeVar("V")


def parse_ip(text: str) -> int:
    """Parse dotted-quad IPv4 text into an integer.

    >>> parse_ip("10.0.0.1")
    167772161
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressingError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressingError(f"malformed IPv4 address: {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressingError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(value: int) -> str:
    """Render an integer IPv4 address as dotted-quad text."""
    if not 0 <= value <= _MAX_IP:
        raise AddressingError(f"IPv4 value out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True)
class Prefix:
    """An IPv4 prefix ``network/length`` with host-bit validation."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressingError(f"prefix length out of range: {self.length}")
        if not 0 <= self.network <= _MAX_IP:
            raise AddressingError(f"network out of range: {self.network}")
        if self.network & ~self.mask():
            raise AddressingError(
                f"host bits set in prefix {format_ip(self.network)}/{self.length}")

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` text."""
        try:
            net_text, len_text = text.split("/")
        except ValueError:
            raise AddressingError(f"malformed prefix: {text!r}") from None
        return cls(parse_ip(net_text), int(len_text))

    def mask(self) -> int:
        """The netmask as an integer."""
        if self.length == 0:
            return 0
        return (_MAX_IP << (32 - self.length)) & _MAX_IP

    def contains(self, ip: int) -> bool:
        """True when *ip* falls inside this prefix."""
        return (ip & self.mask()) == self.network

    @property
    def size(self) -> int:
        """Number of addresses covered."""
        return 1 << (32 - self.length)

    @property
    def first(self) -> int:
        return self.network

    @property
    def last(self) -> int:
        return self.network + self.size - 1

    def hosts(self) -> Iterator[int]:
        """Iterate usable host addresses (skips network/broadcast for /30-)."""
        if self.length >= 31:
            yield from range(self.first, self.last + 1)
        else:
            yield from range(self.first + 1, self.last)

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Iterate the subdivisions of this prefix at *new_length*."""
        if new_length < self.length or new_length > 32:
            raise AddressingError(
                f"cannot subnet /{self.length} into /{new_length}")
        step = 1 << (32 - new_length)
        for net in range(self.first, self.last + 1, step):
            yield Prefix(net, new_length)

    def __str__(self) -> str:
        return f"{format_ip(self.network)}/{self.length}"


class _TrieNode(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: List[Optional["_TrieNode[V]"]] = [None, None]
        self.value: Optional[V] = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """Binary trie keyed by IPv4 prefixes supporting longest-prefix match."""

    def __init__(self) -> None:
        self._root: _TrieNode[V] = _TrieNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert (or replace) the value stored at *prefix*."""
        node = self._root
        for i in range(prefix.length):
            bit = (prefix.network >> (31 - i)) & 1
            nxt = node.children[bit]
            if nxt is None:
                nxt = _TrieNode()
                node.children[bit] = nxt
            node = nxt
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def exact(self, prefix: Prefix) -> Optional[V]:
        """Return the value stored exactly at *prefix*, if any."""
        node = self._root
        for i in range(prefix.length):
            bit = (prefix.network >> (31 - i)) & 1
            nxt = node.children[bit]
            if nxt is None:
                return None
            node = nxt
        return node.value if node.has_value else None

    def longest_match(self, ip: int) -> Optional[Tuple[Prefix, V]]:
        """Return the most-specific (prefix, value) covering *ip*."""
        if not 0 <= ip <= _MAX_IP:
            raise AddressingError(f"IPv4 value out of range: {ip}")
        node = self._root
        best: Optional[Tuple[int, V]] = None
        if node.has_value:
            best = (0, node.value)  # type: ignore[arg-type]
        network = 0
        for i in range(32):
            bit = (ip >> (31 - i)) & 1
            nxt = node.children[bit]
            if nxt is None:
                break
            network |= bit << (31 - i)
            node = nxt
            if node.has_value:
                best = (i + 1, node.value)  # type: ignore[arg-type]
        if best is None:
            return None
        length, value = best
        mask = 0 if length == 0 else (_MAX_IP << (32 - length)) & _MAX_IP
        return Prefix(ip & mask, length), value

    def lookup(self, ip: int) -> Optional[V]:
        """Return only the value of the longest match (or ``None``)."""
        hit = self.longest_match(ip)
        return None if hit is None else hit[1]

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Iterate all stored (prefix, value) pairs in trie order."""
        stack: List[Tuple[_TrieNode[V], int, int]] = [(self._root, 0, 0)]
        while stack:
            node, network, length = stack.pop()
            if node.has_value:
                yield Prefix(network, length), node.value  # type: ignore[misc]
            for bit in (1, 0):
                child = node.children[bit]
                if child is not None:
                    child_net = network | (bit << (31 - length)) if length < 32 else network
                    stack.append((child, child_net, length + 1))


class PrefixAllocator:
    """Carves non-overlapping sub-prefixes out of a pool prefix.

    The topology generator uses one allocator per address pool (cloud,
    transit cores, access edges) so interface and server addresses never
    collide, which matters because bdrmap and prefix-to-AS both key on
    address ownership.
    """

    def __init__(self, pool: Prefix) -> None:
        self._pool = pool
        self._cursor = pool.first
        self._allocated: List[Prefix] = []

    @property
    def pool(self) -> Prefix:
        return self._pool

    @property
    def allocated(self) -> List[Prefix]:
        """Prefixes handed out so far, in allocation order."""
        return list(self._allocated)

    def remaining(self) -> int:
        """Addresses still available in the pool."""
        return self._pool.last - self._cursor + 1

    def allocate(self, length: int) -> Prefix:
        """Allocate the next aligned /*length* block from the pool."""
        if length < self._pool.length or length > 32:
            raise AddressingError(
                f"cannot allocate /{length} from pool {self._pool}")
        size = 1 << (32 - length)
        # Align the cursor up to the block boundary.
        aligned = (self._cursor + size - 1) & ~(size - 1)
        if aligned + size - 1 > self._pool.last:
            raise AddressingError(
                f"pool {self._pool} exhausted allocating /{length}")
        self._cursor = aligned + size
        prefix = Prefix(aligned, length)
        self._allocated.append(prefix)
        return prefix

    def allocate_host(self) -> int:
        """Allocate a single host address (a /32)."""
        return self.allocate(32).network
