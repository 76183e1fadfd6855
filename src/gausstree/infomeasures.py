"""The scalar Gaussian test channel.

:func:`test_channel_law` gives the second-order law of the description
``V`` of a Gaussian source ``U`` at a mean-square distortion: the gain and
the conditional noise variance the oracle and the Monte-Carlo simulator
build every link from.  Rates are reported in bits (log base 2);
:data:`LOG2E` converts the natural-log terms of the outer bound's penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError

__all__ = ["LOG2E", "TestChannelLaw", "test_channel_law"]

LOG2E = math.log2(math.e)


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
