"""Tests for the deterministic hashing/uniform utilities."""

from __future__ import annotations

import pytest

from repro._rng import _COMBINE, MASK64, hash_seed, mix, randint, salted, splitmix64, uniform
from tests.conftest import uniforms


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_distinct_inputs_distinct_outputs(self):
        outs = {splitmix64(i) for i in range(1000)}
        assert len(outs) == 1000

    def test_stays_in_64_bits(self):
        for x in (0, 1, MASK64, 2**63, 987654321987654321):
            assert 0 <= splitmix64(x) <= MASK64

    def test_avalanche_flips_many_bits(self):
        # Flipping one input bit should change roughly half the output bits.
        a = splitmix64(0x1234)
        b = splitmix64(0x1235)
        assert 16 <= bin(a ^ b).count("1") <= 48


class TestMix:
    def test_order_sensitive(self):
        h1 = mix(mix(0, 1), 2)
        h2 = mix(mix(0, 2), 1)
        assert h1 != h2

    def test_token_sensitivity(self):
        base = hash_seed(1, 2)
        assert mix(base, 5) != mix(base, 6)

    def test_hash_seed_varies_with_parts(self):
        assert hash_seed(1) != hash_seed(2)
        assert hash_seed(1, 2) != hash_seed(2, 1)


class TestUniform:
    def test_range(self):
        for salt in range(200):
            u = uniform(123456789, salt)
            assert 0.0 <= u < 1.0

    def test_deterministic(self):
        assert uniform(42, 7) == uniform(42, 7)

    def test_mean_near_half(self):
        vals = [uniform(hash_seed(9, i), 3) for i in range(4000)]
        mean = sum(vals) / len(vals)
        assert abs(mean - 0.5) < 0.03

    def test_uniforms_matches_count(self):
        assert len(uniforms(5, 6, 17)) == 17

    def test_uniforms_values_in_range(self):
        assert all(0.0 <= u < 1.0 for u in uniforms(5, 6, 100))

    def test_uniforms_not_constant(self):
        vals = uniforms(5, 6, 50)
        assert len(set(vals)) > 40

    def test_different_salts_independent(self):
        a = uniforms(77, 1, 100)
        b = uniforms(77, 2, 100)
        assert a != b


    def test_salted_mask_hoists_the_multiply(self):
        for salt in (0, 1, 7, 0x5EED, 2**40 + 3):
            for h in (0, 1, 123456789, MASK64, hash_seed(salt, 3)):
                assert (h ^ (salt * _COMBINE)) & MASK64 == h ^ salted(salt)


class TestRandint:
    def test_in_range(self):
        for salt in range(300):
            v = randint(99, salt, 10, 20)
            assert 10 <= v < 20

    def test_empty_range_raises(self):
        with pytest.raises(ValueError):
            randint(1, 2, 5, 5)

    def test_covers_range(self):
        seen = {randint(3, s, 0, 8) for s in range(200)}
        assert seen == set(range(8))
