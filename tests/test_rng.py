"""SplitMix64: known answers and the block draw against the scalar stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normalobs.rng import MASK64, next_double, next_doubles, seed_state, splitmix64_next


def scalar_doubles(state: int, count: int) -> tuple[np.ndarray, int]:
    """Reference: ``count`` successive scalar draws."""
    values = []
    for _ in range(count):
        u, state = next_double(state)
        values.append(u)
    return np.array(values, dtype=np.float64), state


def assert_block_equals_scalar(seed: int, count: int) -> None:
    state = seed_state(seed)
    expected, expected_state = scalar_doubles(state, count)
    doubles, next_state = next_doubles(state, count)
    assert doubles.dtype == np.float64 and doubles.shape == (count,)
    # compare bit patterns, so even a signed zero or last-ulp slip fails
    assert np.array_equal(doubles.view(np.uint64), expected.view(np.uint64))
    assert next_state == expected_state
    assert type(next_state) is int


def words(seed: int, count: int) -> list[int]:
    state = seed_state(seed)
    out = []
    for _ in range(count):
        word, state = splitmix64_next(state)
        out.append(word)
    return out


def test_known_answers_of_the_published_generator():
    assert words(0, 1) == [0xE220A8397B1DCDAF]
    assert words(1234567, 5) == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


@pytest.mark.parametrize("seed", [0, 1, MASK64, MASK64 - 4, 1 << 63, -12345, (1 << 70) + 3])
@pytest.mark.parametrize("count", [0, 1, 2, 7])
def test_block_draw_equals_scalar_stream(seed, count):
    assert_block_equals_scalar(seed, count)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, MASK64), count=st.integers(0, 300))
def test_block_draw_equals_scalar_stream_property(seed, count):
    assert_block_equals_scalar(seed, count)
