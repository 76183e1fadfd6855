"""The scalar test-channel law and the link rate ``bounds`` gives it, and
the Gaussian closed forms of the test reference that acceptance 08 uses."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gausstree.errors import InputError
from gausstree.network import make_line
from reference import gaussian_entropy_bits, gaussian_kl_nats, smoothing_margin

# aliased so pytest does not collect the library function as a test
from gausstree.infomeasures import test_channel_law as channel_law

from helpers import Keyed


def scalar(mean: float, var: float) -> tuple:
    return np.array([mean]), np.array([[var]])


def channel_rate_bits(source_variance: float, distortion: float) -> float:
    """The rate ``bounds`` gives a link of a test channel that carries
    ``source_variance``: the one uplink of a node of that squared weight."""
    keyed = Keyed(make_line(1, [math.sqrt(source_variance)]))
    return keyed.inner({1: distortion})[0]


class TestEntropy:
    def test_unit_log_argument_gives_zero(self):
        assert gaussian_entropy_bits(1.0 / (2.0 * math.pi * math.e)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_standard_normal(self):
        # 0.5*log2(2*pi*e), cross-checked below by a Monte-Carlo estimate
        assert gaussian_entropy_bits(1.0) == pytest.approx(2.047095585180641, abs=1e-12)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(11)
        samples = rng.standard_normal(200_000)
        # -E[log2 phi(x)] estimates the differential entropy
        log_density = -0.5 * samples**2 - 0.5 * math.log(2.0 * math.pi)
        estimate = -np.mean(log_density) / math.log(2.0)
        assert estimate == pytest.approx(gaussian_entropy_bits(1.0), abs=0.02)

    def test_quadrupling_variance_adds_one_bit(self):
        assert gaussian_entropy_bits(4.0) - gaussian_entropy_bits(1.0) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_bad_variance(self, bad):
        with pytest.raises(ValueError):
            gaussian_entropy_bits(bad)


class TestGaussianKl:
    def test_identical_distributions(self):
        p = scalar(0.3, 1.2)
        assert gaussian_kl_nats(*p, *p) == 0.0

    def test_unit_mean_shift(self):
        assert gaussian_kl_nats(*scalar(1.0, 1.0), *scalar(0.0, 1.0)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_variance_mismatch(self):
        # 0.5*(2 - 1 + ln(1/2)) = 0.5*(1 - ln 2)
        assert gaussian_kl_nats(*scalar(0.0, 2.0), *scalar(0.0, 1.0)) == pytest.approx(
            0.15342640972002736, abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            gaussian_kl_nats(np.zeros(2), np.eye(2), *scalar(0.0, 1.0))

    def test_singular_q(self):
        with pytest.raises(ValueError, match="singular"):
            gaussian_kl_nats(np.zeros(2), np.eye(2), np.zeros(2), np.ones((2, 2)))

    @given(seed=st.integers(0, 5_000))
    def test_nonnegative_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        p = rng.normal(size=n), a @ a.T + 0.1 * np.eye(n)
        q = rng.normal(size=n), b @ b.T + 0.1 * np.eye(n)
        assert gaussian_kl_nats(*p, *q) >= 0.0

    def test_positive_when_different(self):
        assert gaussian_kl_nats(*scalar(0.0, 1.0), *scalar(0.01, 1.0)) > 0.0


class TestTestChannel:
    def test_two_bits_of_ratio_is_one_bit(self):
        assert channel_rate_bits(4.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_full_distortion_is_free(self):
        net = make_line(1, [math.sqrt(3.7)])
        assert Keyed(net).inner({1: net.links().carried[0]})[0] == 0.0

    def test_hundredfold_ratio(self):
        assert channel_rate_bits(2.0, 0.02) == pytest.approx(
            3.321928094887362, abs=1e-12
        )

    @pytest.mark.parametrize("d", [0.0, -0.1, 1.5, math.nan])
    def test_distortion_out_of_range(self, d):
        with pytest.raises(InputError):
            channel_law(1.0, d)

    @given(
        var=st.floats(0.01, 100.0),
        d1=st.floats(0.001, 0.999),
        d2=st.floats(0.001, 0.999),
    )
    def test_rate_monotone(self, var, d1, d2):
        lo, hi = sorted((d1 * var, d2 * var))
        if lo < hi:
            assert channel_rate_bits(var, lo) > channel_rate_bits(var, hi)
        # increasing in the source variance at fixed distortion
        assert channel_rate_bits(2.0 * var, lo) > channel_rate_bits(var, lo)

    def test_degenerate_law(self):
        law = channel_law(2.5, 2.5)
        assert law.gain == 0.0
        assert law.conditional_variance == 0.0
        assert law.gain**2 * law.source_variance + law.conditional_variance == 0.0

    def test_half_distortion_law(self):
        law = channel_law(1.0, 0.5)
        assert law.gain == pytest.approx(0.5)
        assert law.conditional_variance == pytest.approx(0.25)
        assert law.gain**2 * law.source_variance + law.conditional_variance == pytest.approx(0.5)

    @given(var=st.floats(0.01, 50.0), frac=st.floats(0.001, 1.0))
    def test_law_moment_identities(self, var, frac):
        d = frac * var
        law = channel_law(var, d)
        # var V = g^2 var U + cond, and E[(U-V)^2] = (1-g)^2 var U + cond
        assert law.gain**2 * var + law.conditional_variance == pytest.approx(
            var - d, rel=1e-12, abs=1e-15
        )
        assert (1.0 - law.gain) ** 2 * var + law.conditional_variance == pytest.approx(
            d, rel=1e-12, abs=1e-15
        )

    def test_sampling_oracle(self):
        # drawing U then V = gain*U + noise reproduces the promised moments
        law = channel_law(1.0, 0.5)
        rng = np.random.default_rng(42)
        k = 1_000_000
        u = rng.standard_normal(k)
        v = law.gain * u + math.sqrt(law.conditional_variance) * rng.standard_normal(k)
        sq = (u - v) ** 2
        ci = 3.0 * np.std(sq) / math.sqrt(k)
        assert abs(np.mean(sq) - 0.5) < ci
        ci_v = 3.0 * np.std(v**2) / math.sqrt(k)
        assert abs(np.mean(v**2) - 0.5) < ci_v


class TestSmoothingInequality:
    def test_perfectly_correlated_pair(self):
        joint = np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]])
        assert smoothing_margin(*joint, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_independent_standard_normals(self):
        # equal smoothed marginals make the KL side zero; E(x-y)^2/2 = 1
        assert smoothing_margin(np.zeros(2), np.eye(2), 1.0) == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 5_000))
    def test_margin_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3))
        a = rng.normal(size=(2 * n, 2 * n))
        t = float(rng.uniform(1e-3, 10.0))
        assert smoothing_margin(rng.normal(size=2 * n), a @ a.T, t) >= -1e-9

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            smoothing_margin(np.zeros(2), np.eye(2), 0.0)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="even"):
            smoothing_margin(np.zeros(3), np.eye(3), 1.0)

    def test_rejects_non_psd_joint(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            smoothing_margin(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)
