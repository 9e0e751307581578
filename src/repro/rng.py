"""Deterministic random-number management.

Every stochastic component in the simulator draws from a
:class:`numpy.random.Generator` handed to it by a :class:`SeedTree`.
A seed tree derives independent child streams from a root seed and a
string label, so:

* the whole simulation is reproducible from one integer seed,
* adding a new consumer of randomness does not perturb the streams of
  existing consumers (each label hashes to its own stream), and
* parallel subsystems (per-link noise, per-test jitter, catalog
  generation) never share a stream by accident.

Hot paths that need only the *first* ``random()`` of many streams (the
fault injector's per-hour link-flap decisions) use
:meth:`SeedTree.first_uniforms`, an exact vectorized twin of
``generator(label).random()``.  It re-implements numpy's
``SeedSequence`` mixing and the PCG64 seeding step in uint32/uint64
array arithmetic, so it relies on those two streams staying as they are,
which numpy's NEP 19 does not promise across releases;
``tests/test_rng.py::test_first_uniforms_matches_generator`` pins it.
"""

from __future__ import annotations

import hashlib
from typing import Sequence, Set

import numpy as np

from .errors import ConfigError, ValidationError

__all__ = ["SeedTree", "stable_hash64"]


_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF


def stable_hash64(text: str) -> int:
    """Return a stable (process-independent) 64-bit hash of *text*.

    Python's builtin :func:`hash` is salted per process, so it cannot be
    used for reproducible seeding.  We take the first 8 bytes of the
    BLAKE2b digest instead.
    """
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_MULT_L, _SS_MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_SS_XSHIFT = 16
#: PCG64's 128-bit LCG multiplier, as little-endian 32-bit limbs.
_PCG64_MULT = (2549297995355413924 << 64) | 4865540595714422341
_PCG64_MULT_LIMBS = tuple(np.uint64((_PCG64_MULT >> (32 * k)) & _MASK32)
                          for k in range(4))


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The ``(xor, multiply)`` constant pair of each SeedSequence hash.

    SeedSequence threads one running constant through its hash calls,
    so the *k*-th call always uses the same pair; shape ``(count, 2, 1)``
    broadcasts against ``(count, n)`` word arrays.
    """
    pairs = []
    const = init
    for _ in range(count):
        xor = const
        const = (const * mult) & _MASK32
        pairs.append((xor, const))
    return np.array(pairs, dtype=np.uint32).reshape(count, 2, 1)


# A seed below 2**64 is at most two uint32 words, fewer than the
# four-word pool: 4 pool hashes + 12 cross-mix hashes, then 8 output
# hashes for generate_state(4, uint64).
_SS_POOL_CONSTANTS = _hash_constants(_SS_INIT_A, _SS_MULT_A, 16)
_SS_STATE_CONSTANTS = _hash_constants(_SS_INIT_B, _SS_MULT_B, 8)


def _ss_hash(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` (uint32, wrapping)."""
    words = (words ^ constants[:, 0]) * constants[:, 1]
    return words ^ (words >> np.uint32(_SS_XSHIFT))


def _ss_mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` (uint32, wrapping)."""
    result = (np.uint32(_SS_MIX_MULT_L) * x) - (np.uint32(_SS_MIX_MULT_R) * y)
    return result ^ (result >> np.uint32(_SS_XSHIFT))


def _carry128(limbs: np.ndarray) -> np.ndarray:
    """Normalise ``(4, n)`` uint64 limb sums to 32-bit limbs, mod 2**128."""
    mask, shift = np.uint64(_MASK32), np.uint64(32)
    for k in range(3):
        limbs[k + 1] += limbs[k] >> shift
        limbs[k] &= mask
    limbs[3] &= mask
    return limbs


def _pcg64_step(state: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """One LCG step ``state * MULT + inc`` (mod 2**128) on 32-bit limbs.

    Each limb product is below 2**64; its low half lands in column
    ``i + j`` and its high half in ``i + j + 1``, so no column sum can
    overflow uint64 before :func:`_carry128`.
    """
    mask, shift = np.uint64(_MASK32), np.uint64(32)
    cols = inc.copy()
    for j, mult in enumerate(_PCG64_MULT_LIMBS):
        products = state[:4 - j] * mult
        cols[j:] += products & mask
        cols[j + 1:] += products[:3 - j] >> shift
    return _carry128(cols)


def _first_uniforms(seeds: np.ndarray) -> np.ndarray:
    """``np.random.default_rng(s).random()`` for every uint64 seed *s*.

    Three stages, each exact: SeedSequence pool mixing on uint32 words,
    PCG64 seeding (two LCG steps) plus one generator step and the
    XSL-RR output on 128-bit state held as four 32-bit limbs, then the
    53-bit double ``(x >> 11) * 2**-53``.
    """
    n = seeds.shape[0]
    words = np.zeros((4, n), dtype=np.uint32)
    words[0] = seeds & np.uint64(_MASK32)
    words[1] = seeds >> np.uint64(32)
    # A seed below 2**32 coerces to one entropy word, and SeedSequence
    # hashes a missing word exactly like a zero word, so two words
    # cover every seed.
    pool = _ss_hash(words, _SS_POOL_CONSTANTS[:4])
    at = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _ss_hash(pool[src], _SS_POOL_CONSTANTS[at:at + 3])
        pool[dst] = _ss_mix(pool[dst], hashed)
        at += 3
    # generate_state(4, uint64): 8 words cycling over the pool, paired
    # little-endian into (state_hi, state_lo, inc_hi, inc_lo).
    out = _ss_hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]],
                   _SS_STATE_CONSTANTS).astype(np.uint64)
    initstate = out[[2, 3, 0, 1]]
    initseq = out[[6, 7, 4, 5]]

    mask, one = np.uint64(_MASK32), np.uint64(1)
    inc = (initseq << one) & mask
    inc[1:] |= initseq[:-1] >> np.uint64(31)
    inc[0] |= one
    state = _carry128(inc + initstate)   # srandom: (0 * MULT + inc) + s
    state = _pcg64_step(state, inc)      # srandom's second step
    state = _pcg64_step(state, inc)      # the first draw's step

    shift = np.uint64(32)
    xored = ((state[3] << shift) | state[2]) ^ ((state[1] << shift)
                                                | state[0])
    rot = state[3] >> np.uint64(122 - 96)
    word = (xored >> rot) | (xored << ((np.uint64(64) - rot)
                                       & np.uint64(63)))
    return (word >> np.uint64(11)).astype(np.float64) * (1.0 / 2.0 ** 53)


class SeedTree:
    """Hierarchical, label-addressed source of independent RNG streams.

    >>> tree = SeedTree(42)
    >>> gen = tree.generator("netsim.traffic")
    >>> child = tree.child("cloud")
    >>> gen2 = child.generator("billing")

    Two trees built from the same root seed produce identical streams for
    identical label paths.
    """

    def __init__(self, root_seed: int, _path: str = "") -> None:
        if not isinstance(root_seed, int):
            raise TypeError(f"root_seed must be int, got {type(root_seed).__name__}")
        self._root_seed = root_seed
        self._path = _path
        self._handed_out: Set[str] = set()

    @property
    def root_seed(self) -> int:
        """The integer the whole tree derives from."""
        return self._root_seed

    @property
    def path(self) -> str:
        """Slash-joined label path of this node (empty for the root)."""
        return self._path

    def _derive(self, label: str) -> int:
        if not label:
            raise ValidationError("label must be a non-empty string")
        full = f"{self._path}/{label}" if self._path else label
        return (self._root_seed ^ stable_hash64(full)) & _MASK64

    def child(self, label: str) -> "SeedTree":
        """Return a sub-tree rooted at *label*."""
        full = f"{self._path}/{label}" if self._path else label
        return SeedTree(self._root_seed, full)

    def seed(self, label: str) -> int:
        """Return the derived 64-bit seed for *label* under this node."""
        return self._derive(label)

    def generator(self, label: str, *,
                  allow_reuse: bool = False) -> np.random.Generator:
        """Return a fresh, independent generator for *label*.

        Requesting the same label twice from one node raises
        :class:`~repro.errors.ConfigError`: the two call sites would
        silently share a stream, which is almost always a labelling bug
        that perturbs every consumer downstream.  Pass
        ``allow_reuse=True`` at call sites that *intend* to re-derive an
        identical stream (e.g. rebuilding a cached noise array).
        """
        if not allow_reuse:
            if label in self._handed_out:
                raise ConfigError(
                    f"RNG label {label!r} requested twice from seed-tree "
                    f"node {self._path or '<root>'!r}; two consumers would "
                    f"share one stream (pass allow_reuse=True if the "
                    f"re-derivation is intentional)")
            self._handed_out.add(label)
        return np.random.default_rng(self._derive(label))

    def first_uniforms(self, labels: Sequence[str]) -> np.ndarray:
        """The first ``random()`` of each label's stream, in one pass.

        Bit-identical to ``[self.generator(label, allow_reuse=True)
        .random() for label in labels]``.  One call costs a fixed ~150
        small numpy operations plus one hash per label, so it beats
        building generators only once there are a few dozen labels: it
        serves hot paths that decide many independent events at once.
        """
        if not all(labels):
            raise ValidationError("label must be a non-empty string")
        # stable_hash64 of "{path}/{label}": hash the shared path prefix
        # once and copy the hasher per label.
        prefix = f"{self._path}/" if self._path else ""
        copy = hashlib.blake2b(prefix.encode("utf-8"), digest_size=8).copy
        hashers = [copy() for _ in labels]
        for hasher, label in zip(hashers, labels):
            hasher.update(label.encode("utf-8"))
        hashes = np.frombuffer(
            b"".join([hasher.digest() for hasher in hashers]), dtype=">u8")
        seeds = hashes.astype(np.uint64) ^ np.uint64(
            self._root_seed & _MASK64)
        return _first_uniforms(seeds)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SeedTree(root_seed={self._root_seed}, path={self._path!r})"
