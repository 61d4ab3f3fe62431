import math
import tracemalloc

import numpy as np
import pytest

from olx.errors import BUDGETS, DomainError, ResourceError
from olx.lfamily import is_fundamental_discriminant
from olx.primes import (
    SEGMENT_SIZE,
    _simple_sieve,
    character_table,
    kronecker,
    sieve_primes,
)


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        d = 2
        is_p = True
        while d * d <= n:
            if n % d == 0:
                is_p = False
                break
            d += 1
        if is_p:
            out.append(n)
    return out


def kronecker_odd_prime_oracle(d, p):
    """(d/p) for odd prime p by brute-force quadratic residues."""
    if d % p == 0:
        return 0
    residues = {(x * x) % p for x in range(1, p)}
    return 1 if d % p in residues else -1


class TestSieve:
    def test_first_primes(self):
        assert sieve_primes(10).tolist() == [2, 3, 5, 7]

    def test_limit_too_small(self):
        with pytest.raises(DomainError):
            sieve_primes(1)

    def test_against_trial_division(self):
        assert sieve_primes(10_000).tolist() == trial_division_primes(10_000)

    def test_count_at_1e6(self):
        assert len(sieve_primes(10**6)) == 78498

    def test_prefix_property(self):
        big = sieve_primes(10**5)
        for smaller in (10, 97, 1000, 65536):
            small = sieve_primes(smaller)
            np.testing.assert_array_equal(small, big[big <= smaller])

    def test_segment_boundaries(self):
        # tiny segments exercise the per-segment striking logic
        ref = sieve_primes(5000)
        seg = sieve_primes(5000, segment_size=64)
        np.testing.assert_array_equal(ref, seg)

    def test_deterministic(self):
        a = sieve_primes(12345)
        b = sieve_primes(12345)
        np.testing.assert_array_equal(a, b)

    def test_result_immutable(self):
        t = sieve_primes(100)
        with pytest.raises(ValueError):
            t[0] = 4

    def test_limit_above_budget_is_a_resource_error(self):
        with pytest.raises(ResourceError, match="sieve budget"):
            sieve_primes(BUDGETS["sieve_limit"].limit + 1)

    @pytest.mark.parametrize("segment_size", [2, 64, SEGMENT_SIZE, 1000])
    def test_every_small_limit(self, segment_size):
        # one-number segments (segment_size 2) stop at 400: to 3000 they
        # take about a minute
        for limit in range(2, 401 if segment_size == 2 else 3001):
            np.testing.assert_array_equal(
                sieve_primes(limit, segment_size), _simple_sieve(limit))

    @pytest.mark.parametrize("segment_size", [64, 1000])
    def test_limits_around_segment_edges(self, segment_size):
        # segments of segment_size integers start at the first odd number
        # past sqrt(limit); take every limit within 3 of an edge
        checked = 0
        for limit in range(2, 40 * segment_size):
            first = max(math.isqrt(limit) + 1, 3) | 1
            if (limit - first + 3) % segment_size <= 6:
                np.testing.assert_array_equal(
                    sieve_primes(limit, segment_size), _simple_sieve(limit))
                checked += 1
        assert checked > 200

    @pytest.mark.parametrize("segments", [1, 2])
    def test_limits_around_a_default_segment_edge(self, segments):
        # the segments start at the first odd number past sqrt(limit) and
        # hold SEGMENT_SIZE // 2 odd numbers each
        span = SEGMENT_SIZE // 2
        edge = segments * SEGMENT_SIZE + math.isqrt(segments * SEGMENT_SIZE)
        limits = range(edge - 4, edge + 5)
        fills = [(limit - (math.isqrt(limit) + 1 | 1)) // 2 + 1 for limit in limits]
        assert {span * segments - 1, span * segments, span * segments + 1} <= set(fills)
        ref = _simple_sieve(limits[-1])
        for limit in limits:
            np.testing.assert_array_equal(sieve_primes(limit), ref[ref <= limit])

    @pytest.mark.parametrize("limit, count", [(2, 1), (3, 2), (4, 2), (10**6, 78498)])
    def test_result_is_one_exact_int64_array(self, limit, count):
        primes = sieve_primes(limit)
        assert primes.dtype == np.int64 and len(primes) == count
        assert primes.base is None and primes.nbytes == 8 * count  # no larger buffer behind it
        assert not primes.flags.writeable

    def test_primes_are_held_once(self):
        # one buffer of the Rosser-Schoenfeld bound 1.25506 x / ln x (1.17
        # pi(x) at 1e7) plus one segment's mask and primes: tracemalloc reads
        # 8.53e6 bytes with numpy 2.4, and 11.4e6 for a sieve that keeps its
        # segments and joins them
        sieve_primes(1000)
        tracemalloc.start()
        try:
            primes = sieve_primes(10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * primes.nbytes + SEGMENT_SIZE


class TestKronecker:
    def test_examples(self):
        assert kronecker(-4, 3) == -1
        assert kronecker(5, 5) == 0
        assert kronecker(5, 4) == 1

    def test_d_zero_rejected(self):
        with pytest.raises(DomainError):
            kronecker(0, 3)

    def test_n_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            kronecker(5, 0)

    def test_unit(self):
        for d in (-8, -4, -3, 5, 8, 13):
            assert kronecker(d, 1) == 1

    @pytest.mark.parametrize("d", [-8, -4, -3, 5, 8])
    def test_odd_prime_oracle(self, d):
        for p in trial_division_primes(200):
            if p == 2:
                continue
            assert kronecker(d, p) == kronecker_odd_prime_oracle(d, p), (d, p)

    @pytest.mark.parametrize("d", [-8, -4, -3, 5, 8, 17])
    def test_at_two(self, d):
        # (d/2): 0 for even d, +1 for d = +-1 mod 8, -1 for d = +-3 mod 8
        if d % 2 == 0:
            expected = 0
        elif d % 8 in (1, 7):
            expected = 1
        else:
            expected = -1
        assert kronecker(d, 2) == expected

    @pytest.mark.parametrize("d", [-8, -4, -3, 5, 8])
    def test_completely_multiplicative(self, d):
        vals = {n: kronecker(d, n) for n in range(1, 201)}
        for m in range(1, 201):
            for n in range(1, 201):
                if math.gcd(m, n) == 1:
                    assert kronecker(d, m * n) == vals[m] * vals[n]

    @pytest.mark.parametrize("d", [-8, -4, -3, 5, 8, 12])
    def test_period(self, d):
        q = abs(d)
        for n in range(1, 3 * q):
            assert kronecker(d, n) == kronecker(d, n + q)

    @pytest.mark.parametrize("d", [-8, -4, -3, 5, 8, -20, 21])
    def test_full_period_sums_to_zero(self, d):
        assert sum(kronecker(d, n) for n in range(1, abs(d) + 1)) == 0


class TestCharacterTable:
    def test_matches_symbol(self):
        for d in (-8, -4, -3, 5, 8):
            table = character_table(d)
            for n in range(1, 50):
                assert table[n % abs(d)] == kronecker(d, n)

    def test_rejects_units(self):
        with pytest.raises(DomainError):
            character_table(1)

    def test_every_residue_against_symbol(self):
        # the table is filled from chi_d at the primes; kronecker is the oracle
        for d in range(-1000, 1001):
            if d != 1 and is_fundamental_discriminant(d):
                table = character_table(d)
                assert table.dtype == np.int8 and not table.flags.writeable
                assert table.tolist() == [0] + [kronecker(d, r) for r in range(1, abs(d))], d

    def test_largest_discriminant_at_seeded_residues(self):
        d = -999995
        table = character_table(d)
        assert character_table(d) is table and not table.flags.writeable
        residues = np.random.default_rng(7).integers(1, abs(d), 10_000).tolist()
        assert [int(table[r]) for r in residues] == [kronecker(d, r) for r in residues]
