"""Unit tests for deterministic RNG helpers."""

from repro.common.rng import derive_seed, make_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_labels_separate_streams(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_base_seed_matters(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_make_rng_reproducible(self):
        a = make_rng(7, "x").random()
        b = make_rng(7, "x").random()
        assert a == b
