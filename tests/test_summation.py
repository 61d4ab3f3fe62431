"""The block order of olx.summation on synthetic ascending arrays, no sieve.

prime_blocks must cut any windowing of an array into the blocks that
slicing the whole array at multiples of BLOCK gives, and prefix_log_sums
must give, at every limit, the bits of the one-array reduction of the
entries <= that limit. The term function sees at most PART entries a
call, and the sums keep the bits of calling it on whole blocks.
"""
import numpy as np
import pytest

from olx.summation import (
    BLOCK,
    PART,
    blocked_complex_log_sum,
    blocked_log_sum,
    neumaier_sum,
    prefix_log_sums,
    prime_blocks,
)

N = 3 * BLOCK + 1234  # three full blocks and a short final one
JOINED = 2 + np.cumsum(np.random.default_rng(7).integers(1, 40, N)).astype(np.int64)

# window lengths, each list summing to N
SPLITS = {
    "one-array": None,
    "one-window": [N],
    "empty-windows": [0, N - 5, 0, 5, 0],
    "shorter-than-block": [100, BLOCK - 100, 3, N - BLOCK - 3],
    "exactly-block": [BLOCK, BLOCK, BLOCK, N - 3 * BLOCK],
    "spanning-two-blocks": [BLOCK // 2, BLOCK + 7, 2 * BLOCK, N - 3 * BLOCK - BLOCK // 2 - 7],
    "many-small": [5000] * (N // 5000) + [N % 5000],
    "short-final-block": [3 * BLOCK + 1000, 0, 234],
}


def windows(split):
    if split is None:
        return JOINED
    assert sum(split) == N
    return iter(np.split(JOINED, np.cumsum(split)[:-1]))


def terms(ps):
    # nonlinear and spread over 26 decades, so a fold without compensation,
    # or in another order, changes the last bits of some prefix sums
    return np.exp(30.0 * np.sin(ps * 0.37))


def one_array_sum(primes, term_fn=terms):
    """The reduction prime_blocks must reproduce: the array sliced at
    multiples of BLOCK, each whole slice's terms summed by numpy, folded by
    neumaier_sum."""
    return neumaier_sum(float(np.sum(term_fn(primes[lo : lo + BLOCK])))
                        for lo in range(0, len(primes), BLOCK))


@pytest.mark.parametrize("split", SPLITS.values(), ids=SPLITS.keys())
def test_blocks_are_the_slices_of_the_joined_array(split):
    blocks = list(prime_blocks(windows(split)))
    want = [JOINED[lo : lo + BLOCK] for lo in range(0, N, BLOCK)]
    assert [len(b) for b in blocks] == [BLOCK, BLOCK, BLOCK, 1234]
    assert all(np.array_equal(b, w) for b, w in zip(blocks, want))


def test_blocks_of_one_array_are_views():
    assert all(np.shares_memory(b, JOINED) for b in prime_blocks(JOINED))


def test_no_windows_give_no_blocks():
    assert list(prime_blocks(JOINED[:0])) == list(prime_blocks(iter([]))) == []


@pytest.mark.parametrize("split", SPLITS.values(), ids=SPLITS.keys())
def test_prefix_sums_keep_the_bits_of_each_prefix(split):
    # both sides of every block edge, and a third of the way into each block
    edges = [*range(0, N + 1, BLOCK), N]
    limits = sorted({float(JOINED[0] - 1), float(JOINED[-1] + 5)}
                    | {float(JOINED[j]) + d for e in edges for j in (e - 2, e - 1, e, e + BLOCK // 3)
                       if 0 <= j < N for d in (-0.5, 0.0, 0.5)})
    got = list(prefix_log_sums(windows(split), terms, limits))
    prefixes = [JOINED[: np.searchsorted(JOINED, x, side="right")] for x in limits]
    assert got == [blocked_log_sum(p, terms) for p in prefixes]
    assert got == [one_array_sum(p) for p in prefixes]
    assert got[0] == 0.0 and got[-1] == one_array_sum(JOINED)


@pytest.mark.parametrize("split", SPLITS.values(), ids=SPLITS.keys())
def test_term_fn_sees_each_prime_once_at_most_a_part_a_call(split):
    seen = []

    def spy(ps):
        seen.append(ps.copy())
        return terms(ps)

    list(prefix_log_sums(windows(split), spy, [float(JOINED[-1])]))
    assert max(len(ps) for ps in seen) == PART
    assert np.array_equal(np.concatenate(seen), JOINED)
    seen.clear()
    blocked_complex_log_sum(JOINED, lambda ps: (spy(ps), terms(ps)))
    assert max(len(ps) for ps in seen) == PART
    assert np.array_equal(np.concatenate(seen), JOINED)


def test_short_arrays_take_one_call():
    seen = []
    blocked_log_sum(JOINED[:PART], lambda ps: seen.append(len(ps)) or terms(ps))
    assert seen == [PART]


@pytest.mark.parametrize("split", SPLITS.values(), ids=SPLITS.keys())
def test_parts_keep_the_bits_of_whole_blocks(split):
    # limits on both sides of a part edge, inside a part of a full block
    # and inside the last part of the short final block
    at = [PART - 1, PART, BLOCK + PART + PART // 2, 2 * BLOCK + 3 * PART + 17, N - 5]
    limits = sorted(float(JOINED[j]) + d for j in at for d in (-0.5, 0.0))
    got = list(prefix_log_sums(windows(split), terms, limits))
    assert got == [one_array_sum(JOINED[: np.searchsorted(JOINED, x, side="right")])
                   for x in limits]


def test_complex_parts_keep_the_bits_of_whole_blocks():
    def imag(ps):
        return np.exp(25.0 * np.cos(ps * 0.11))

    got = blocked_complex_log_sum(JOINED, lambda ps: (terms(ps), imag(ps)))
    assert got == complex(one_array_sum(JOINED), one_array_sum(JOINED, imag))
