"""Seed tree determinism and independence."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError, ValidationError
from repro.rng import SeedTree, stable_hash64


def test_stable_hash_is_stable():
    assert stable_hash64("hello") == stable_hash64("hello")
    assert stable_hash64("hello") != stable_hash64("hell0")


def test_same_label_same_stream():
    a = SeedTree(42).generator("x").random(8)
    b = SeedTree(42).generator("x").random(8)
    assert np.array_equal(a, b)


def test_different_labels_different_streams():
    a = SeedTree(42).generator("x").random(8)
    b = SeedTree(42).generator("y").random(8)
    assert not np.array_equal(a, b)


def test_different_roots_different_streams():
    a = SeedTree(1).generator("x").random(8)
    b = SeedTree(2).generator("x").random(8)
    assert not np.array_equal(a, b)


def test_child_path_matters():
    tree = SeedTree(7)
    direct = tree.generator("a/b").random(4)
    nested = tree.child("a").generator("b").random(4)
    assert np.array_equal(direct, nested)


def test_child_and_sibling_disjoint():
    tree = SeedTree(7)
    a = tree.child("net").generator("noise").random(4)
    b = tree.child("cloud").generator("noise").random(4)
    assert not np.array_equal(a, b)


def test_empty_label_rejected():
    with pytest.raises(ValueError):
        SeedTree(1).generator("")


def test_non_int_seed_rejected():
    with pytest.raises(TypeError):
        SeedTree("42")  # type: ignore[arg-type]


def test_seed_path_property():
    tree = SeedTree(5).child("a").child("b")
    assert tree.path == "a/b"
    assert tree.root_seed == 5


@given(st.text(min_size=1, max_size=40))
def test_seed_in_64bit_range(label):
    seed = SeedTree(999).seed(label)
    assert 0 <= seed < 2 ** 64


def test_label_reuse_raises_config_error():
    tree = SeedTree(42)
    tree.generator("noise")
    with pytest.raises(ConfigError, match="noise"):
        tree.generator("noise")


def test_label_reuse_allowed_when_explicit():
    tree = SeedTree(42)
    a = tree.generator("noise").random(4)
    b = tree.generator("noise", allow_reuse=True).random(4)
    assert np.array_equal(a, b)


def test_distinct_labels_do_not_collide():
    tree = SeedTree(42)
    tree.generator("a")
    tree.generator("b")  # no error


def test_sibling_nodes_track_labels_independently():
    tree = SeedTree(42)
    tree.child("net").generator("noise")
    tree.child("cloud").generator("noise")  # different nodes: fine


def test_collision_error_is_repro_error():
    from repro.errors import ReproError

    tree = SeedTree(1)
    tree.generator("x")
    with pytest.raises(ReproError):
        tree.generator("x")


# ----------------------------------------------------------------------
# first_uniforms: the exact vectorized twin of generator(label).random()
#
# It re-implements numpy's SeedSequence mixing and PCG64 seeding, so a
# numpy release that changed either stream would fail here by name
# (scripts/check.py runs these first, as the numpy stream-compat gate).


def _random_label(rnd):
    alphabet = "abcxyz0189/-_>.#é✓"
    return "".join(rnd.choice(alphabet)
                   for _ in range(rnd.randrange(1, 40)))


@pytest.mark.parametrize("tree", [SeedTree(7),
                                  SeedTree(2 ** 64 + 11).child("faults")],
                         ids=["root-node", "child-node"])
def test_first_uniforms_matches_generator(tree):
    rnd = random.Random(tree.root_seed)
    labels = [_random_label(rnd) for _ in range(10_000)]
    labels += [f"link-flap/{rnd.randrange(5000)}/{rnd.randrange(2)}/"
               f"{rnd.randrange(10 ** 10)}" for _ in range(2_000)]
    want = [tree.generator(label, allow_reuse=True).random()
            for label in labels]
    assert tree.first_uniforms(labels).tolist() == want


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63,
                                  2 ** 64 - 1])
def test_first_uniforms_matches_generator_at_edge_seeds(seed):
    """Seeds below 2**32 are a one-word SeedSequence entropy array."""
    tree = SeedTree(seed ^ stable_hash64("x"))
    assert tree.seed("x") == seed
    assert tree.first_uniforms(["x"])[0] == tree.generator("x").random()


def test_first_uniforms_empty_and_bad_labels():
    tree = SeedTree(3)
    assert tree.first_uniforms([]).shape == (0,)
    with pytest.raises(ValidationError):
        tree.first_uniforms(["ok", ""])


# ----------------------------------------------------------------------
# chunked normal draws: the numpy property lazily grown noise rests on
#
# UtilizationModel draws each link direction's hourly noise as a growing
# prefix of one stream.  That is byte-identical to one full-size draw
# only while numpy's Generator.normal keeps no state between calls
# (scripts/check.py runs this with the first_uniforms cases).


@pytest.mark.parametrize("sizes", [[24, 24, 48, 96, 192], [1, 2, 3, 997],
                                   [8784]])
def test_chunked_normal_matches_one_draw(sizes):
    tree = SeedTree(7).child("utilization-noise")
    one = tree.generator("link-3-dir-1").normal(0.0, 0.035, sum(sizes))
    gen = tree.generator("link-3-dir-1", allow_reuse=True)
    chunks = np.concatenate([gen.normal(0.0, 0.035, size=n)
                             for n in sizes])
    assert np.array_equal(chunks.view(np.uint64), one.view(np.uint64))
