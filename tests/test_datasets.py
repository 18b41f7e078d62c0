import numpy as np
import pytest

from nn2logic.datasets import sorted_choices


def _choice_rows(rng, pool: int, k: int, count: int) -> np.ndarray:
    rows = [np.sort(rng.choice(pool, size=k, replace=False)) for _ in range(count)]
    return np.array(rows, dtype=np.int64).reshape(count, k)


def _cases():
    meta = np.random.default_rng(2029)
    cases = [(1, 1, 3), (7, 1, 20), (7, 7, 20), (216, 5, 100), (2**33, 3, 5), (4, 2, 0)]
    for _ in range(200):
        pool = int(meta.integers(1, 300))
        k = int(meta.integers(1, pool + 1))
        cases.append((pool, k, int(meta.integers(0, 30))))
    # at and past the tail-shuffle bound: Floyd at k = pool // 50, choice itself above it
    cases += [(10000, 201, 3), (20000, 400, 2), (20000, 401, 2)]
    return [(*case, int(meta.integers(0, 2**32)), i % 2 == 1) for i, case in enumerate(cases)]


@pytest.mark.parametrize("pool, k, count, seed, half_word", _cases())
def test_sorted_choices_repeat_choice_and_its_generator_state(pool, k, count, seed, half_word):
    """Rows, state afterwards and the next draw all equal per-row sorted ``choice`` calls.

    ``half_word`` first draws one small scalar, which leaves half a 64-bit
    word buffered in the generator for the 32-bit draws that follow.
    """
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if half_word:
        got_rng.integers(0, 10)
        want_rng.integers(0, 10)
    got = sorted_choices(got_rng, pool, k, count)
    want = _choice_rows(want_rng, pool, k, count)
    assert got.dtype == np.int64 and got.shape == (count, k)
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got_rng.random() == want_rng.random()

