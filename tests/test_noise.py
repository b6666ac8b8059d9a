import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from dpexperts.core import MechanismSpec, NoiseKind
from dpexperts.mechanism import select_batch
from dpexperts.noise import (
    RngStream,
    derive_seed,
    exponential_ppf,
    gumbel_cdf,
    gumbel_ppf,
    laplace_ppf,
    noise_cdf,
    noise_pdf,
    noise_ppf,
    splitmix64,
)

KINDS = (NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL, NoiseKind.GUMBEL)


class TestSeeding:
    def test_splitmix64_reference_values(self):
        # First two outputs of the well-known sequence seeded at 0.
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4

    def test_derive_seed_is_deterministic_and_sensitive(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
        assert derive_seed(42, 1) != derive_seed(43, 1)
        assert derive_seed(42) != derive_seed(42, 0)

    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=0, max_value=2**64 - 1))
    def test_derive_seed_range(self, base, idx):
        s = derive_seed(base, idx)
        assert 0 <= s < 2**64

    def test_stream_reproducible(self):
        a = RngStream(123).uniform(100)
        b = RngStream(123).uniform(100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, RngStream(124).uniform(100))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["uniform", "binomial", "int32"]),
                              st.integers(0, 50)), max_size=6),
           st.integers(0, 10**6), st.integers(1, 20), st.integers(0, 2**64 - 1))
    def test_skip_lands_where_the_uniforms_would(self, draws, n, m, seed):
        # A 32-bit integer draw buffers half an output, which uniforms keep.
        skipped, drawn = RngStream(seed), RngStream(seed)
        for rng in (skipped, drawn):
            for kind, size in draws:
                if kind == "uniform":
                    rng.uniform(size)
                elif kind == "binomial":
                    rng.generator.binomial(1000, 0.3, size=size)
                else:
                    rng.generator.integers(0, 7, size=size, dtype=np.int32)
        skipped.skip(n)
        drawn.uniform(n)
        assert np.array_equal(skipped.uniform(m), drawn.uniform(m))
        assert np.array_equal(skipped.generator.integers(0, 2**31, 5, dtype=np.int32),
                              drawn.generator.integers(0, 2**31, 5, dtype=np.int32))
        assert skipped.generator.bit_generator.state == drawn.generator.bit_generator.state

    def test_index_in_range(self):
        rng = RngStream(5)
        draws = [rng.index(7) for _ in range(1000)]
        assert min(draws) >= 0 and max(draws) <= 6
        assert len(set(draws)) == 7


class TestInverseCdfs:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
    def test_ppf_inverts_cdf(self, kind, scale):
        u = np.linspace(0.001, 0.999, 200)
        x = noise_ppf(kind, u, scale)
        assert np.allclose(noise_cdf(kind, x, scale), u, atol=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_pdf_integrates_to_one(self, kind):
        lo = float(noise_ppf(kind, 1e-14, 1.3))
        hi = float(noise_ppf(kind, 1.0 - 1e-15, 1.3))
        mass, _ = integrate.quad(lambda x: float(noise_pdf(kind, x, 1.3)), lo, hi)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_laplace_density_normalization(self):
        # Height at the origin is 1 / (2 beta).
        assert noise_pdf(NoiseKind.LAPLACE, 0.0, 2.0) == pytest.approx(0.25)
        assert noise_cdf(NoiseKind.LAPLACE, 0.0, 2.0) == pytest.approx(0.5)
        assert laplace_ppf(0.5, 2.0) == pytest.approx(0.0)

    def test_exponential_support(self):
        x = exponential_ppf(np.linspace(0.0, 0.999, 50), 1.0)
        assert x.min() >= 0.0
        assert noise_cdf(NoiseKind.EXPONENTIAL, -1.0, 1.0) == 0.0

    def test_gumbel_median(self):
        med = gumbel_ppf(0.5, 1.0)
        assert med == pytest.approx(-math.log(math.log(2.0)))
        assert gumbel_cdf(med, 1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("kind", KINDS)
    def test_pdf_and_cdf_are_finite_and_quiet_far_out(self, kind):
        z = np.array([-800.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (noise_pdf, noise_cdf):
                assert np.all(np.isfinite(fn(kind, z, 1.0)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_ppf_finite_at_clamped_endpoints(self, kind):
        out = noise_ppf(kind, np.array([0.0, 1.0]), 1.0)
        assert np.all(np.isfinite(out))


class TestSampling:
    @pytest.mark.parametrize("kind,mean_of_scale", [
        (NoiseKind.LAPLACE, 0.0),
        (NoiseKind.EXPONENTIAL, 1.0),
        (NoiseKind.GUMBEL, np.euler_gamma),
    ])
    def test_sample_mean(self, kind, mean_of_scale):
        scale = 1.7
        spec = MechanismSpec(0, kind, epsilon=2.0 / scale)
        assert spec.scale() == pytest.approx(scale)
        x = noise_ppf(kind, RngStream(99).uniform(200_000), spec.scale())
        assert x.mean() == pytest.approx(mean_of_scale * scale, abs=0.02)

    def test_no_noise_samples_zero(self):
        # No noise is report-noisy-max with Q = 0: the argmax of -G.
        spec = MechanismSpec(0, NoiseKind.NONE)
        scores = np.random.default_rng(1).uniform(0.0, 3.0, size=(500, 6))
        assert np.array_equal(select_batch(scores, spec, RngStream(1)),
                              np.argmax(-scores, axis=1))

    def test_scale_must_be_positive(self):
        # The samplers take their scale from a MechanismSpec, which refuses
        # every epsilon that would give a scale that is not positive.
        for kind in KINDS:
            for eps in (0.0, -1.0, math.nan):
                with pytest.raises(ValueError):
                    MechanismSpec(0, kind, epsilon=eps)
            spec = MechanismSpec(0, kind, epsilon=1e-3)
            assert np.all(np.isfinite(noise_ppf(kind, RngStream(0).uniform(10), spec.scale())))


def _reference_ppf(kind, u, scale):
    """The inverse CDFs as closed forms evaluated into fresh temporaries, with
    both Laplace branches computed under np.where."""
    if kind is NoiseKind.LAPLACE:
        u = np.clip(np.asarray(u, float), 1e-300, 1.0 - 1e-16)
        return np.where(u < 0.5, scale * np.log(2.0 * u), -scale * np.log(2.0 * (1.0 - u)))
    if kind is NoiseKind.EXPONENTIAL:
        u = np.clip(np.asarray(u, float), 0.0, 1.0 - 1e-16)
        return -scale * np.log1p(-u)
    u = np.clip(np.asarray(u, float), 1e-300, 1.0 - 1e-16)
    return -scale * np.log(-np.log(u))


PPF_EDGES = [0.0, 1e-320, 1e-300, 0.5, np.nextafter(0.5, 0.0), 1.0 - 1e-16, np.nextafter(1.0, 0.0)]


class TestInPlaceInverseCdfs:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("scale", [0.5, 2.0, 3.7])
    def test_bitwise_equal_to_reference(self, kind, scale):
        u = np.concatenate([PPF_EDGES, np.random.default_rng(8).random(100_000)])
        got = noise_ppf(kind, u, scale)
        want = _reference_ppf(kind, u, scale)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_laplace_median_is_negative_zero(self):
        assert np.signbit(laplace_ppf(0.5, 1.0))

    @pytest.mark.parametrize("kind", KINDS)
    def test_shapes(self, kind):
        for u in (0.3, np.float64(0.3), np.array(0.3)):
            out = noise_ppf(kind, u, 1.0)
            assert np.ndim(out) == 0 and not isinstance(out, np.ndarray)
            assert out == _reference_ppf(kind, 0.3, 1.0)
        u = np.random.default_rng(9).random((4, 7))
        assert noise_ppf(kind, u, 1.0).shape == (4, 7)
        assert noise_ppf(kind, [0.2, 0.9], 1.0).shape == (2,)

    @pytest.mark.parametrize("kind", KINDS)
    def test_input_is_not_mutated(self, kind):
        u = np.concatenate([PPF_EDGES, np.random.default_rng(10).random(994)]).reshape(-1, 7)
        before = u.copy()
        noise_ppf(kind, u, 2.0)
        assert np.array_equal(u, before)
        # A read-only view is accepted too: nothing is written into it.
        row = np.broadcast_to(before[0], (5, 7))
        assert np.array_equal(noise_ppf(kind, row, 2.0), np.tile(noise_ppf(kind, before[0], 2.0), (5, 1)))
