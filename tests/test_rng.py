import numpy as np
import pytest

from relurand.rng import RngStream

_EXTREMES = [0, 5, -5, 2**63 - 1, -2**63]


def _same(a, b) -> bool:
    """Whether two bit-generator states (nested dicts of arrays) are equal."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("seed", _EXTREMES)
@pytest.mark.parametrize("stream_id", [0, 1, -1, 2**63 - 1, 2**64 - 1])
def test_stream_is_philox_keyed_by_seed_and_id(seed, stream_id):
    # the key words reach Philox without a SeedSequence, and give the state
    # and the draws of Philox(key=...)
    key = np.array([seed % 2**64, stream_id % 2**64], dtype=np.uint64)
    ref = np.random.Generator(np.random.Philox(key=key))
    rng = RngStream(seed, stream_id)
    assert _same(rng._gen.bit_generator.state, ref.bit_generator.state)
    assert np.array_equal(rng.normal(7), ref.standard_normal(7))
    assert np.array_equal(rng.chi(3.5, 4), np.sqrt(ref.chisquare(3.5, 4)))
    assert np.array_equal(rng.uniform(3), ref.random(3))
