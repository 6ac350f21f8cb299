"""Unit tests for repro.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rng import choice_without_replacement, make_rng, spawn, zipf_weights


class TestMakeRng:
    def test_int_seed_deterministic(self):
        assert make_rng(3).integers(1000) == make_rng(3).integers(1000)

    def test_generator_passes_through(self):
        g = np.random.default_rng(0)
        assert make_rng(g) is g

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestSpawn:
    def test_children_independent_and_deterministic(self):
        a = spawn(make_rng(1), 3)
        b = spawn(make_rng(1), 3)
        for ga, gb in zip(a, b):
            assert ga.integers(10**6) == gb.integers(10**6)

    def test_children_differ_from_each_other(self):
        children = spawn(make_rng(1), 2)
        assert children[0].integers(10**9) != children[1].integers(10**9)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn(make_rng(1), -1)

    def test_zero_children(self):
        assert spawn(make_rng(1), 0) == []


class TestChoice:
    def test_distinct_results(self):
        rng = make_rng(0)
        out = choice_without_replacement(rng, list("abcdef"), 4)
        assert len(out) == len(set(out)) == 4

    def test_k_equals_population(self):
        out = choice_without_replacement(make_rng(0), [1, 2, 3], 3)
        assert sorted(out) == [1, 2, 3]

    def test_k_zero(self):
        assert choice_without_replacement(make_rng(0), [1], 0) == []

    def test_oversampling_rejected(self):
        with pytest.raises(ValueError):
            choice_without_replacement(make_rng(0), [1, 2], 3)

    def test_weights_bias_selection(self):
        rng = make_rng(0)
        hits = sum(
            choice_without_replacement(rng, ["x", "y"], 1, weights=np.array([0.99, 0.01]))[0] == "x"
            for _ in range(200)
        )
        assert hits > 150

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            choice_without_replacement(make_rng(0), [1, 2], 1, weights=np.array([1.0]))
        with pytest.raises(ValueError):
            choice_without_replacement(make_rng(0), [1, 2], 1, weights=np.array([-1.0, 2.0]))
        with pytest.raises(ValueError):
            choice_without_replacement(make_rng(0), [1, 2], 1, weights=np.array([0.0, 0.0]))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("bad", [[1.0, np.nan], [1.0, np.inf], [1e308, 1e308]])
    def test_non_finite_weights_rejected(self, k, bad):
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            choice_without_replacement(make_rng(0), [1, 2], k, weights=np.array(bad))

    def test_weighted_single_pick_matches_generator_choice(self):
        """The k=1 weighted path returns what ``Generator.choice`` returns
        and leaves the stream where it leaves it."""
        meta = make_rng(2024)
        for _ in range(1000):
            n = int(meta.integers(1, 61))
            w = 10.0 ** meta.uniform(-12, 6, size=n)
            w[meta.random(n) < 0.1] = 0.0
            if not w.any():
                w[int(meta.integers(n))] = 1.0
            seed = int(meta.integers(2**32))
            ours, ref = make_rng(seed), make_rng(seed)
            got = choice_without_replacement(ours, list(range(n)), 1, weights=w)
            want = ref.choice(n, 1, replace=False, p=w / w.sum())
            assert got == [int(want[0])]
            assert ours.random() == ref.random()

    def test_preserves_item_identity(self):
        items = [("tuple", 1), ("tuple", 2)]
        out = choice_without_replacement(make_rng(0), items, 2)
        assert all(isinstance(x, tuple) for x in out)


class TestZipf:
    def test_normalized_and_decreasing(self):
        w = zipf_weights(10, 1.0)
        assert w.sum() == pytest.approx(1.0)
        assert all(w[i] >= w[i + 1] for i in range(9))

    def test_exponent_zero_uniform(self):
        w = zipf_weights(4, 0.0)
        assert np.allclose(w, 0.25)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(5, -1.0)
