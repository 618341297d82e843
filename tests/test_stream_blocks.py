"""Stream blocks (``linalg.stream_block``) against streams seeded one at a time.

A block must be bit-identical to numpy's own ``SeedSequence`` seeding, so a
numpy release that changes the hashing fails here instead of silently
drawing different data; and every library routine that builds its streams
as a block must give the bits it gives when fed the plain streams of
``helpers.plain_streams``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qntklab import circuits, haar
from qntklab.circuits import ensemble_angles, sample_random_circuits, uniform_angles
from qntklab.haar import mc_commutator_trace, mc_kbar, mc_second_moment
from qntklab.kernels import ensemble_kernels, haar_instance_kernels, random_pauli_sum
from qntklab.linalg import RngStream, stream_block, substreams, zero_state

from helpers import pauli_matrix, plain_streams, plain_substreams

SEEDS = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5]) | st.integers(0, 2**96 - 1)
# one-word entries, and entries of 2^32 and more, which split into several words
ENTRIES = st.integers(0, 2**32 - 1) | st.integers(2**32, 2**80)
ADDRESSES = st.lists(st.lists(ENTRIES, min_size=1, max_size=4).map(tuple), min_size=1, max_size=8)


def _numpy_generator(seed, path):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path)))


def _assert_same_draws(got: np.random.Generator, want: np.random.Generator):
    assert got.bit_generator.state == want.bit_generator.state
    np.testing.assert_array_equal(got.integers(0, 2**40, size=5), want.integers(0, 2**40, size=5))
    a, b = np.empty((2, 3)), np.empty((2, 3))
    got.standard_normal(out=a)
    want.standard_normal(out=b)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got.uniform(0.0, 2.0 * np.pi, size=4), want.uniform(0.0, 2.0 * np.pi, size=4))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(seed=SEEDS, addresses=ADDRESSES)
@example(seed=0, addresses=[(2, 0, k) for k in range(5)])
@example(seed=2**64 + 5, addresses=[(2**32,), (7,), (1, 2**64), (3, 4, 5, 6)])
@example(seed=2**32 - 1, addresses=[(1, 2, 3, 4)] * 3)
def test_block_matches_numpy_seed_sequence_bit_for_bit(seed, addresses):
    block = stream_block(seed, addresses)
    assert [(s.seed, s.index) for s in block] == [(seed, a) for a in addresses]
    for stream, path in zip(block, addresses):
        _assert_same_draws(stream.generator, _numpy_generator(seed, path))


def test_block_streams_share_no_generator_state():
    block = stream_block(5, [(1, k) for k in range(4)])
    first = block[0].generator.standard_normal(100)
    assert len({id(s.generator.bit_generator) for s in block}) == 4
    _assert_same_draws(block[1].generator, RngStream(5, (1, 1)).generator)
    np.testing.assert_array_equal(first, RngStream(5, (1, 0)).generator.standard_normal(100))


def test_block_edge_cases():
    assert stream_block(3, []) == []
    with pytest.raises(ValueError):
        stream_block(3, [(1,), ()])
    with pytest.raises(ValueError):
        stream_block(3, [(1,), (-1,)])
    with pytest.raises(ValueError):
        stream_block(-1, [(1,)])


def test_substreams_match_substream_with_one_seed_or_several():
    one_seed = stream_block(8, [(2, k) for k in range(6)])
    several = [RngStream(8, (2,)), RngStream(9, (2,)), RngStream(8, (3, 2**40))]
    for streams in (one_seed, several):
        for got, want in zip(substreams(streams, 0), plain_substreams(streams, 0)):
            assert (got.seed, got.index) == (want.seed, want.index)
            _assert_same_draws(got.generator, want.generator)


def test_ensemble_angles_match_one_substream_per_circuit():
    streams = stream_block(13, [(2, 1, k) for k in range(7)])
    expected = np.stack([uniform_angles(9, s.substream(0)) for s in streams], axis=1)
    np.testing.assert_array_equal(ensemble_angles(9, streams), expected)


@pytest.fixture
def unblocked(monkeypatch):
    """Make the library build every stream on its own, as the reference run.

    Returns the addresses the Monte-Carlo estimators asked for, call by call.
    """
    calls = []

    def recorded(seed, addresses):
        calls.append([(seed, a) for a in addresses])
        return plain_streams(seed, addresses)

    monkeypatch.setattr(circuits, "substreams", plain_substreams)
    monkeypatch.setattr(haar, "stream_block", recorded)
    return calls


def _prefixed(prefix, count):
    return [prefix + (k,) for k in range(count)]


@pytest.mark.parametrize("exclude_identity", [True, False])
def test_lazy_kernels_from_a_block_are_bit_identical(exclude_identity, request):
    obs = random_pauli_sum(2, 10, RngStream(70))

    def kernels(streams):
        return haar_instance_kernels(2, 12, streams, obs, zero_state(2), exclude_identity)

    got = kernels(stream_block(71, _prefixed((2, 0), 40)))
    request.getfixturevalue("unblocked")
    want = kernels(plain_streams(71, _prefixed((2, 0), 40)))
    np.testing.assert_array_equal(got, want)


def test_dense_ensemble_kernels_from_a_block_are_bit_identical(request):
    obs = random_pauli_sum(3, 10, RngStream(72))

    def kernels(streams):
        return ensemble_kernels(sample_random_circuits(3, 6, streams), streams, obs, zero_state(3))

    got = kernels(stream_block(73, _prefixed((2, 1), 20)))
    request.getfixturevalue("unblocked")
    want = kernels(plain_streams(73, _prefixed((2, 1), 20)))
    np.testing.assert_array_equal(got, want)


def test_monte_carlo_estimates_from_blocks_are_bit_identical(request):
    obs = random_pauli_sum(2, 10, RngStream(74))
    op = pauli_matrix("ZI") + pauli_matrix("XX")
    x_op, obs2 = pauli_matrix("Z"), 0.8 * pauli_matrix("X") + 0.3 * pauli_matrix("Z")

    def estimates():
        # 5000 samples at D = 2 and D = 4 span several Haar blocks
        return [
            mc_kbar(2, 8, obs, zero_state(2), 300, RngStream(75, (2,))).as_dict(),
            mc_second_moment(4, zero_state(2), op, 5000, RngStream(76)).as_dict(),
            mc_commutator_trace(2, x_op, obs2, 5000, RngStream(77, (1, 2))).as_dict(),
        ]

    got = estimates()
    calls = request.getfixturevalue("unblocked")
    assert got == estimates()
    # the documented layout: sample s of mc_kbar from rng.substream(s + 1),
    # Haar sample s of the two others from rng.substream(s)
    addresses = [address for call in calls for address in call]
    assert addresses == (
        [(75, (2, s + 1)) for s in range(300)] + [(76, (0, s)) for s in range(5000)] + [(77, (1, 2, s)) for s in range(5000)]
    )
