import numpy as np
from hypothesis import given, strategies as st

from dcpowersim.seeds import _seeded_streams, derive_seed, substream, substreams


def test_same_labels_same_seed():
    assert derive_seed(7, "a", "b") == derive_seed(7, "a", "b")


def test_final_label_changes_seed_no_collisions():
    seeds = {derive_seed(3, "stream", i) for i in range(100_000)}
    assert len(seeds) == 100_000


def test_label_concatenation_cannot_collide():
    assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")
    assert derive_seed(0, "ab") != derive_seed(0, "a", "b")


def test_derivation_is_pure_and_order_independent():
    later = derive_seed(11, "x", 2)
    earlier = derive_seed(11, "x", 1)
    assert derive_seed(11, "x", 1) == earlier
    assert derive_seed(11, "x", 2) == later


@given(st.integers(min_value=0, max_value=2**64 - 1), st.text(max_size=20))
def test_seed_fits_in_64_bits(root, label):
    s = derive_seed(root, label)
    assert 0 <= s < 2**64


def test_substreams_are_independent_generators():
    a = substream(5, "left")
    b = substream(5, "right")
    a_draws = a.random(4)
    assert not np.allclose(a_draws, b.random(4))
    assert np.allclose(a_draws, substream(5, "left").random(4))


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def test_seeded_streams_are_default_rng_of_each_seed():
    """State and first draws of numpy's own ``default_rng(seed)``, for
    one- and two-word seeds at the edges and 1000 random ones."""
    spread = np.random.default_rng(20261020).integers(
        0, 2**64 - 1, 1000, dtype=np.uint64, endpoint=True
    )
    seeds = EDGE_SEEDS + spread.tolist()
    checked = 0
    for seed, rng in zip(seeds, _seeded_streams(np.array(seeds, dtype=np.uint64))):
        want = np.random.default_rng(seed)
        assert rng.bit_generator.state == want.bit_generator.state, seed
        assert rng.standard_normal(50).tobytes() == want.standard_normal(50).tobytes()
        checked += 1
    assert checked == len(seeds)


def test_substreams_give_the_substream_of_each_label():
    labels = ["0", "1", 17, "job-4243", "é", ""]
    got = []
    for rng in substreams(9, "job-power", labels):
        got.append(rng.random(3).tobytes())
    assert got == [substream(9, "job-power", label).random(3).tobytes() for label in labels]
    assert list(substreams(9, "job-power", [])) == []
