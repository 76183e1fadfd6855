"""Closed-form Gaussian information quantities.

Differential entropy, the multivariate-normal KL divergence, the scalar
Gaussian test-channel law (rate, gain, conditional noise) and a numerical
verifier for the Gaussian-smoothing inequality that dominates KL
divergence by mean-square distance.

Convention: every rate is reported in bits (log base 2); KL divergences
are in nats because the smoothing inequality is stated that way.  The
conversion constant is :data:`LOG2E`.

numpy is imported by the matrix functions only, so the scalar ones (which
``bounds`` uses) load without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConsistencyError, InputError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LOG2E",
    "GaussianSpec",
    "TestChannelLaw",
    "gaussian_entropy_bits",
    "gaussian_kl_nats",
    "test_channel_law",
    "test_channel_rate_bits",
    "verify_smoothing_inequality",
]

LOG2E = math.log2(math.e)

#: Negative KL beyond this is a bug, not round-off.
_KL_ROUNDOFF = 1e-12

#: Relative symmetry tolerance for covariance matrices.
_SYM_TOL = 1e-12

#: Eigenvalues may dip this far (times the spectral scale) below zero
#: before a covariance stops counting as positive semi-definite.
_PSD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """A multivariate normal law ``N(mean, covariance)``.

    The covariance must be symmetric (within ``1e-12`` relative) and
    positive semi-definite.  Singular covariances are accepted so that
    perfectly correlated joints can be expressed; operations that need
    invertibility (the KL divergence) check for it themselves.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        if mean.ndim != 1:
            raise InputError("mean must be a vector")
        if cov.shape != (mean.size, mean.size):
            raise InputError(
                f"covariance shape {cov.shape} does not match dimension {mean.size}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise InputError("mean and covariance must be finite")
        scale = float(np.max(np.abs(cov))) if cov.size else 0.0
        if not np.allclose(cov, cov.T, rtol=_SYM_TOL, atol=_SYM_TOL * max(scale, 1.0)):
            raise InputError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        eigs = np.linalg.eigvalsh(cov)
        if eigs.size and eigs[0] < -_PSD_TOL * max(scale, 1.0):
            raise InputError(f"covariance is not positive semi-definite (min eig {eigs[0]:g})")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def gaussian_entropy_bits(variance: float) -> float:
    """Differential entropy ``0.5 * log2(2*pi*e*variance)`` per sample."""
    if not (variance > 0.0 and math.isfinite(variance)):
        raise InputError(f"variance must be positive and finite, got {variance!r}")
    return 0.5 * math.log2(2.0 * math.pi * math.e * variance)


def gaussian_kl_nats(p: GaussianSpec, q: GaussianSpec) -> float:
    """KL divergence ``D(p || q)`` between multivariate normals, in nats.

    Evaluates ``0.5 * (tr(Sq^-1 Sp) - N + dm' Sq^-1 dm + ln det Sq / det Sp)``.
    Round-off may push the result a hair below zero; anything above
    ``-1e-12`` is clamped to 0, anything below raises
    :class:`~gausstree.errors.ConsistencyError` because the closed form
    cannot legitimately go that negative.
    """
    import numpy as np

    if p.dim != q.dim:
        raise InputError(f"dimension mismatch: {p.dim} vs {q.dim}")
    n = p.dim
    sign_q, logdet_q = np.linalg.slogdet(q.covariance)
    sign_p, logdet_p = np.linalg.slogdet(p.covariance)
    if sign_q <= 0 or not np.isfinite(logdet_q):
        raise InputError("q covariance is singular")
    if sign_p <= 0 or not np.isfinite(logdet_p):
        raise InputError("p covariance is singular")
    try:
        solved = np.linalg.solve(q.covariance, p.covariance)
    except np.linalg.LinAlgError as exc:
        raise InputError("q covariance is singular") from exc
    dm = q.mean - p.mean
    quad = float(dm @ np.linalg.solve(q.covariance, dm))
    value = 0.5 * (float(np.trace(solved)) - n + quad + (logdet_q - logdet_p))
    if value < -_KL_ROUNDOFF:
        raise ConsistencyError(f"KL divergence evaluated to {value:g} < -{_KL_ROUNDOFF:g}")
    return max(value, 0.0)


def test_channel_rate_bits(source_variance: float, distortion: float) -> float:
    """Rate ``0.5 * log2(source_variance / distortion)`` of the Gaussian
    test channel describing a variance-``source_variance`` source at
    mean-square distortion ``distortion``; zero when they coincide."""
    _check_channel_args(source_variance, distortion)
    return 0.5 * math.log2(source_variance / distortion)


@dataclass(frozen=True)
class TestChannelLaw:
    """Second-order description of the scalar Gaussian test channel.

    For a source ``U ~ N(0, source_variance)`` described at mean-square
    distortion ``distortion``, the description is
    ``V = gain * U + N(0, conditional_variance)`` with
    ``gain = 1 - distortion / source_variance``.  The induced joint law
    satisfies ``E[(U - V)^2] = distortion`` and
    ``var V = source_variance - distortion`` exactly, and ``V`` is the
    MMSE estimate of ``U`` given ``V``.
    """

    source_variance: float
    distortion: float
    gain: float
    conditional_variance: float

    @property
    def description_variance(self) -> float:
        return self.source_variance - self.distortion


def test_channel_law(source_variance: float, distortion: float) -> TestChannelLaw:
    """Conditional law of the description given the source (see
    :class:`TestChannelLaw`).  ``distortion = source_variance`` yields the
    degenerate rate-0 channel whose description is identically zero."""
    _check_channel_args(source_variance, distortion)
    gain = 1.0 - distortion / source_variance
    return TestChannelLaw(
        source_variance=float(source_variance),
        distortion=float(distortion),
        gain=gain,
        conditional_variance=gain * distortion,
    )


def _check_channel_args(source_variance: float, distortion: float) -> None:
    if not (source_variance > 0.0 and math.isfinite(source_variance)):
        raise InputError(f"source variance must be positive, got {source_variance!r}")
    if not (0.0 < distortion <= source_variance):
        raise InputError(
            f"distortion must lie in (0, {source_variance!r}], got {distortion!r}"
        )


def verify_smoothing_inequality(joint: GaussianSpec, t: float) -> float:
    """Margin of the Gaussian-smoothing inequality for a jointly Gaussian pair.

    ``joint`` is the 2N-dimensional law of the stacked pair ``(x, y)``.
    With ``z ~ N(0, I)`` independent of the pair, the KL divergence
    between the laws of ``x + sqrt(t) z`` and ``y + sqrt(t) z`` is
    dominated by ``E||x - y||^2 / (2 t)``.  Both sides are closed-form
    here: the smoothed marginals are ``N(mu_x, Sigma_x + t I)`` and
    ``N(mu_y, Sigma_y + t I)``, and the mean-square distance comes from
    the joint second moments.

    Returns
    -------
    float
        ``rhs - lhs`` in nats; mathematically guaranteed ``>= 0`` (up to
        round-off of order 1e-9).
    """
    import numpy as np

    if not (t > 0.0 and math.isfinite(t)):
        raise InputError(f"smoothing variance t must be positive, got {t!r}")
    if joint.dim % 2 != 0:
        raise InputError(f"joint dimension must be even, got {joint.dim}")
    n = joint.dim // 2
    mean_x, mean_y = joint.mean[:n], joint.mean[n:]
    cov = joint.covariance
    cov_xx, cov_yy, cov_xy = cov[:n, :n], cov[n:, n:], cov[:n, n:]

    eye = t * np.eye(n)
    lhs = gaussian_kl_nats(
        GaussianSpec(mean_x, cov_xx + eye), GaussianSpec(mean_y, cov_yy + eye)
    )
    mean_sq = float(
        np.sum((mean_x - mean_y) ** 2)
        + np.trace(cov_xx)
        + np.trace(cov_yy)
        - 2.0 * np.trace(cov_xy)
    )
    rhs = mean_sq / (2.0 * t)
    return rhs - lhs
