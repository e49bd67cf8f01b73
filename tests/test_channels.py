import math

import numpy as np
import pytest

from fblsec.channels import (
    RicianSpec,
    apply_reciprocity_error,
    sample_rayleigh,
    sample_rician,
    steering_vector,
)
from fblsec.cipc import CipcConfig
from fblsec.numerics import RngSeed
from fblsec.secrecy import ConstraintPair

SEED = RngSeed(20260810, 0)


class TestRayleigh:
    def test_deterministic(self):
        assert np.array_equal(sample_rayleigh(4, SEED), sample_rayleigh(4, SEED))

    def test_streams_differ(self):
        a = sample_rayleigh(4, RngSeed(1, 0))
        b = sample_rayleigh(4, RngSeed(1, 1))
        assert not np.any(a == b)

    def test_shape(self):
        assert sample_rayleigh(3, SEED).shape == (3,)
        assert sample_rayleigh(3, SEED, size=10).shape == (10, 3)

    def test_power_normalization(self):
        batch = sample_rayleigh(4, SEED, size=10**5)
        power = np.sum(np.abs(batch) ** 2, axis=1)
        assert power.mean() == pytest.approx(4.0, rel=0.01)

    def test_component_variances(self):
        batch = sample_rayleigh(2, SEED, size=10**5)
        assert batch.real.var() == pytest.approx(0.5, rel=0.01)
        assert batch.imag.var() == pytest.approx(0.5, rel=0.01)
        assert abs(batch.mean()) < 0.01

    def test_rejects_bad_antennas(self):
        with pytest.raises(ValueError):
            sample_rayleigh(0, SEED)


class TestPrefixStableBatches:
    """A batch of k rows is the first k rows of any larger batch."""

    K = 7

    @pytest.mark.parametrize(
        "draw",
        [
            lambda seed, size: sample_rayleigh(3, seed, size=size),
            lambda seed, size: sample_rician(RicianSpec(2.0, 0.3, 3), seed, size=size),
            lambda seed, size: apply_reciprocity_error(
                np.ones((size, 3), dtype=complex), 0.2, seed
            ),
        ],
        ids=["rayleigh", "rician", "reciprocity"],
    )
    def test_prefix(self, draw):
        short, long = draw(SEED, self.K), draw(SEED, 3 * self.K)
        assert np.array_equal(short, long[: self.K])

    def test_single_vector_is_row_zero(self):
        spec = RicianSpec(2.0, 0.3, 3)
        assert np.array_equal(sample_rayleigh(3, SEED), sample_rayleigh(3, SEED, size=4)[0])
        assert np.array_equal(sample_rician(spec, SEED), sample_rician(spec, SEED, size=4)[0])
        h = sample_rayleigh(3, SEED.stream(5))
        assert np.array_equal(
            apply_reciprocity_error(h, 0.2, SEED), apply_reciprocity_error(h[None], 0.2, SEED)[0]
        )


class TestSteeringVector:
    def test_boresight_is_ones(self):
        assert np.array_equal(steering_vector(0.0, 5), np.ones(5, dtype=complex))

    @pytest.mark.parametrize("theta", [-1.2, -0.3, 0.0, 0.7, 1.5])
    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_unit_modulus_entries(self, theta, n):
        a = steering_vector(theta, n)
        assert a.shape == (n,)
        assert np.abs(a) == pytest.approx(np.ones(n), rel=1e-14)
        assert np.linalg.norm(a) ** 2 == pytest.approx(n, rel=1e-14)

    def test_quarter_turn_entry(self):
        a = steering_vector(math.pi / 6, 2)
        assert a[1] == pytest.approx(1j, abs=1e-15)

    def test_array_of_angles_gives_one_row_each(self):
        angles = np.linspace(-1.5, 1.5, 41)
        batch = steering_vector(angles, 5)
        assert batch.shape == (41, 5)
        for theta, row in zip(angles, batch):
            assert np.array_equal(steering_vector(float(theta), 5), row)
        with pytest.raises(ValueError):
            steering_vector(np.array([0.1, math.pi / 2]), 4)

    def test_rejects_endfire(self):
        with pytest.raises(ValueError):
            steering_vector(math.pi / 2, 4)
        with pytest.raises(ValueError):
            steering_vector(-2.0, 4)


class TestRician:
    def test_pure_los(self):
        spec = RicianSpec(math.inf, 0.4, 4)
        h = sample_rician(spec, SEED)
        assert np.array_equal(h, steering_vector(0.4, 4))

    def test_zero_k_is_rayleigh(self):
        spec = RicianSpec(0.0, 0.4, 4)
        seed = RngSeed(77, 3)
        assert np.allclose(
            sample_rician(spec, seed), sample_rayleigh(4, seed), rtol=0, atol=0
        )

    def test_power_normalization(self):
        spec = RicianSpec(1.0, 0.2, 4)
        batch = sample_rician(spec, SEED, size=10**5)
        power = np.sum(np.abs(batch) ** 2, axis=1)
        assert power.mean() == pytest.approx(4.0, rel=0.01)

    def test_batch_shape(self):
        spec = RicianSpec(math.inf, 0.1, 3)
        assert sample_rician(spec, SEED, size=7).shape == (7, 3)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RicianSpec(-0.5, 0.0, 4)
        with pytest.raises(ValueError):
            RicianSpec(1.0, 2.0, 4)
        with pytest.raises(ValueError):
            RicianSpec(1.0, 0.0, 0)


def _sigma_delta_refusals(value) -> list[str]:
    """The messages with which CipcConfig and apply_reciprocity_error refuse value."""
    messages = []
    for make in (
        lambda: CipcConfig(1.0, 10.0, 2, 0.01, 0.1, 500, ConstraintPair(1e-6, 0.5), value, 10, SEED),
        lambda: apply_reciprocity_error(sample_rayleigh(4, SEED), value, SEED.stream(1)),
    ):
        with pytest.raises(ValueError) as refused:
            make()
        messages.append(str(refused.value))
    return messages


class TestReciprocityError:
    def test_zero_error_exact_copy(self):
        h = sample_rayleigh(4, SEED)
        h_u = apply_reciprocity_error(h, 0.0, SEED.stream(1))
        assert np.array_equal(h_u, h)
        assert h_u is not h

    def test_deterministic(self):
        h = sample_rayleigh(4, SEED)
        a = apply_reciprocity_error(h, 0.25, SEED.stream(1))
        b = apply_reciprocity_error(h, 0.25, SEED.stream(1))
        assert np.array_equal(a, b)

    def test_perturbation_power(self):
        h = sample_rayleigh(4, SEED, size=10**5)
        h_u = apply_reciprocity_error(h, 0.1, SEED.stream(1))
        mismatch = np.mean(np.abs(h_u - h) ** 2)
        assert mismatch == pytest.approx(0.01, rel=0.02)

    def test_rejects_negative_sigma(self):
        assert _sigma_delta_refusals(-0.1) == ["sigma_delta must be finite and >= 0, got -0.1"] * 2

    @pytest.mark.parametrize("value", [math.inf, math.nan, -0.1])
    def test_sigma_must_be_finite_and_nonnegative(self, value):
        assert _sigma_delta_refusals(value) == [f"sigma_delta must be finite and >= 0, got {value!r}"] * 2
