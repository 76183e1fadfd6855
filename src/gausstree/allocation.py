"""Choose per-link incremental distortions for a total distortion budget.

Equal split is the canonical aggregation allocator (optimal only in the
zero-distortion limit, like reverse water-filling across the parallel
partial sums).  A penalized numeric allocator explores finite budgets by
minimizing the full outer-bound objective; it guarantees never to return
an objective worse than equal split and makes no optimality claim.

Consensus allocation solves ``min 0.5 * sum_e log2(s2_e / inc_e)`` over
directed edges subject to ``sum_e multiplicity_e * inc_e = D``.  The
stationarity conditions give the closed form
``inc_e = D / (E_d * multiplicity_e)`` with ``E_d = 2(n-1)`` directed
edges, so that ``multiplicity_e * inc_e`` is the same on every edge.  The
program is convex, so its KKT conditions certify the closed form in O(n);
a Newton solver that stops once they hold is the independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

from . import bounds
from .bounds import ConsensusProfile, DistortionProfile
from .errors import ConsistencyError, InfeasibleError, InputError
from .network import LinkSet, TreeNetwork

__all__ = [
    "RateAllocation",
    "allocate_consensus",
    "allocate_consensus_numeric",
    "allocate_equal_incremental",
    "allocate_numeric_penalized",
    "rates_for_profile",
]

#: Unit roundoff, and the most one rounding can lose in the subnormal range.
_U, _TINY = 2.0**-53, 2.0**-1074

#: Newton steps before the numeric consensus solve gives up with a warning.
_NEWTON_STEPS = 120

#: Cap on coordinate updates for the penalized numeric allocator.
_MAX_UPDATES = 100_000


@dataclass(frozen=True)
class RateAllocation:
    """Per-link rates realizing a distortion profile.

    ``method`` is one of ``equal-split``, ``numeric-penalized``,
    ``consensus-kkt``, ``consensus-numeric`` or ``profile-rates``.
    """

    method: str
    per_link_rate_bits: dict
    profile: DistortionProfile | ConsensusProfile
    sum_rate_bits: float
    warnings: tuple[str, ...] = ()

    def link_records(self, net: TreeNetwork) -> list[dict]:
        records = []
        view = net.links(isinstance(self.profile, ConsensusProfile))
        for key in sorted(self.per_link_rate_bits):
            k = view.index[key]
            records.append(
                {
                    "from": view.src[k],
                    "to": view.dst[k],
                    "inc": self.profile.inc[key],
                    "rate_bits": self.per_link_rate_bits[key],
                }
            )
        return records

    def to_json_dict(self, net: TreeNetwork) -> dict:
        out: dict[str, object] = {
            "method": self.method,
            "sum_rate_bits": self.sum_rate_bits,
            "links": self.link_records(net),
        }
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out

    def to_csv_rows(self, net: TreeNetwork) -> list[list]:
        rows: list[list] = [["from", "to", "inc", "rate_bits"]]
        for record in self.link_records(net):
            rows.append([record["from"], record["to"], record["inc"], record["rate_bits"]])
        rows.append(["total", "", "", self.sum_rate_bits])
        return rows


def _check_budget(total_distortion: float) -> float:
    if not (
        isinstance(total_distortion, (int, float))
        and math.isfinite(total_distortion)
        and total_distortion > 0.0
    ):
        raise InfeasibleError(f"infeasible distortion {total_distortion!r}")
    return float(total_distortion)


def allocate_equal_incremental(net: TreeNetwork, total_distortion: float) -> RateAllocation:
    """Equal split ``inc_i = D/n`` with rates ``0.5*log2(s2_i/(D/n))``.

    The sum rate coincides with the closed-form inner bound at ``D``.
    """
    total_distortion = _check_budget(total_distortion)
    view = net.links()
    # Checks the split (D/n can underflow to 0.0) and its test channels.
    inc = view.positive(view.split(total_distortion), "distortion parameters")
    bounds._test_channel_variances(view, inc)
    return _allocation("equal-split", view, inc)


def allocate_numeric_penalized(
    net: TreeNetwork, total_distortion: float, tol: float = 1e-10
) -> RateAllocation:
    """Best-effort minimizer of the penalized outer-bound objective.

    Coordinate pattern search in the log domain with simplex
    renormalization after every trial step, initialized at equal split.
    Stops when a full sweep improves the objective by less than ``tol``
    at the finest step size, or when the update cap is hit (the best
    iterate is then returned with a warning).
    """
    import numpy as np

    bounds._require_links(net)
    total_distortion = _check_budget(total_distortion)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InputError(f"tolerance must be positive, got {tol!r}")
    links = net.sources
    n = len(links)

    def objective(inc_vec: np.ndarray) -> float:
        profile = bounds.derive_distortions(net, dict(zip(links, inc_vec.tolist())))
        return bounds.outer_bound_incremental(net, profile).total_bits

    def renormalized(inc_vec: np.ndarray) -> np.ndarray:
        return inc_vec * (total_distortion / inc_vec.sum())

    inc = np.full(n, total_distortion / n)
    best = objective(inc)
    warnings: tuple[str, ...] = ()
    if n > 1:
        updates = 0
        step = 0.5
        while step >= 1e-8 and updates < _MAX_UPDATES:
            sweep_gain = 0.0
            for idx in range(n):
                for factor in (math.exp(step), math.exp(-step)):
                    candidate = inc.copy()
                    candidate[idx] *= factor
                    candidate = renormalized(candidate)
                    updates += 1
                    value = objective(candidate)
                    if value < best:
                        sweep_gain += best - value
                        best = value
                        inc = candidate
                    if updates >= _MAX_UPDATES:
                        break
                if updates >= _MAX_UPDATES:
                    break
            if sweep_gain < tol:
                step *= 0.5
        if updates >= _MAX_UPDATES:
            warnings = (
                f"stopped after {updates} coordinate updates before reaching tol={tol:g}",
            )

    return _allocation("numeric-penalized", net.links(), inc.tolist(), warnings)


def _checked(view: LinkSet, inc: list) -> tuple[tuple, list]:
    # Every allocation's checks, in one order: ``inc`` is positive (a budget
    # whose split underflows to 0 is refused as an input), then its fold
    # ``(tx, rx, per_sink, total)`` and each link's rate.
    view.positive(inc, "incremental distortions")
    return bounds._accumulate(view, inc), bounds._link_rates(view, inc)


def _allocation(
    method: str, view: LinkSet, inc: list, warnings: tuple = (), checked: tuple | None = None
) -> RateAllocation:
    # Every allocator's tail: ``inc`` keyed with its profile and rates, from
    # its ``_checked`` pair when the caller holds it.
    fold, rates = checked or _checked(view, inc)
    profile = bounds._derive(view, inc, fold)
    return RateAllocation(method, view.keyed(rates), profile, fsum(rates), warnings)


# ---------------------------------------------------------------------------
# consensus


def _consensus_setup(net: TreeNetwork, total_distortion: float):
    total_distortion = _check_budget(total_distortion)
    return total_distortion, bounds._consensus_view(net)


def allocate_consensus(
    net: TreeNetwork, total_distortion: float, cross_validate: bool = True
) -> RateAllocation:
    """Stationarity closed form for the consensus rate-allocation program.

    ``inc_e = D / (E_d * multiplicity_e)`` keeps ``multiplicity_e * inc_e``
    constant across the ``E_d = 2(n-1)`` directed edges and makes the
    budget constraint tight.  With ``cross_validate`` (default) the result
    is certified optimal by the KKT conditions of the convex program
    (:func:`_certify`, O(n)); ``cross_validate=False`` skips the check.
    """
    view, inc, checked = _consensus_inc(net, total_distortion, cross_validate)
    return _allocation("consensus-kkt", view, inc, checked=checked)


def _consensus_inc(net: TreeNetwork, total_distortion: float, cross_validate: bool = True):
    """``(view, inc, checked)``: the consensus links, the closed form of
    :func:`allocate_consensus` listed in link order and its :func:`_checked`
    pair, certified unless ``cross_validate`` is off; nothing is keyed."""
    total_distortion, view = _consensus_setup(net, total_distortion)
    # E * m is an exact integer, so each inc_e is one rounding of D / (E m).
    n_links = len(view.mult)
    inc = [total_distortion / (n_links * m) for m in view.mult]
    checked = _checked(view, inc)
    if cross_validate:
        _certify([m * d for m, d in zip(view.mult, inc)], total_distortion, "consensus-kkt")
    return view, inc, checked


def _certify(level: list, total_distortion: float, method: str) -> None:
    """Refuse ``method``'s consensus allocation unless its ``level = m * inc``
    meets the KKT conditions (:func:`_kkt_violation`).  They read only the
    least, the greatest and the exact sum of ``level``, so its order is free."""
    violation = _kkt_violation(level, _level_sum(level), total_distortion)
    if violation is not None:
        raise ConsistencyError(f"{method} allocation {violation}")


def _level_sum(level: list[float]) -> float:
    # The exact sum of ``level = m * inc``; a sum beyond the float range is
    # an infeasible budget, as in ``LinkSet.sums``.
    try:
        return fsum(level)
    except OverflowError:
        raise InfeasibleError("multiplicity * inc sums beyond the float range") from None


def _kkt_violation(level: list[float], total: float, budget: float) -> str | None:
    """Which KKT condition of the consensus program ``level = m * inc``
    misses (``inc > 0``, ``level`` constant, ``total = fsum(level)`` equal
    to ``budget``; Boyd and Vandenberghe, *Convex Optimization*, 5.5.3), or
    None.  Tolerances bound the forward error, each rounding being off by at
    most ``u |result| + tiny``: the closed form rounds ``inc_e`` once and a
    Newton step at its fixed point four times (``level``, ``q``, ``mu q``,
    ``x + dx``), ``level_e`` adds one, so ``level`` spreads by at most
    ``10u`` (16u allowed) plus ``(E + 2) tiny``, as no ``m_e`` exceeds
    ``E/2``; a Newton step takes ``mu`` from one dot product of length ``E``
    and adds about ten roundings, so ``total`` is within ``(E + 16) u``
    relative plus ``(E + 1)^2 tiny`` (the closed form within ``3u``)."""
    n_links = len(level)
    lo, hi = min(level), max(level)
    if not (lo > 0.0 and hi - lo <= 16 * _U * lo + (n_links + 2) * _TINY):
        return f"is not stationary: multiplicity * inc spans [{lo!r}, {hi!r}]"
    if not abs(total - budget) <= (n_links + 16) * _U * budget + (n_links + 1) ** 2 * _TINY:
        return f"misses its budget: multiplicity * inc sums to {total!r}, not {budget!r}"
    return None


def allocate_consensus_numeric(net: TreeNetwork, total_distortion: float) -> RateAllocation:
    """Equality-constrained Newton solve of the consensus program.

    Minimizes ``sum_e 0.5*log2(s2_e/x_e)`` subject to ``m @ x = D`` by
    damped Newton steps from the uniform start, each also removing its
    iterate's budget residual so that rounding cannot pile up in ``m @ x``;
    stops once the KKT certificate holds, or warns after ``_NEWTON_STEPS``.
    """
    import numpy as np

    total_distortion, view = _consensus_setup(net, total_distortion)
    mult = np.array(view.mult, dtype=float)
    x = np.full(len(mult), total_distortion / mult.sum())
    warnings: tuple[str, ...] = ()
    for taken in range(_NEWTON_STEPS + 1):
        level = mult * x
        listed = level.tolist()
        total = _level_sum(listed)
        if _kkt_violation(listed, total, total_distortion) is None:
            break
        if taken == _NEWTON_STEPS:
            warnings = (f"stopped after {taken} Newton steps before the KKT certificate held",)
            break
        # The Hessian is diagonal, so the step is dx_e = x_e (1 - mu q_e)
        # with q = m x / D and mu chosen so that m @ (x + dx) = D.
        q = level / total_distortion
        dx = x * (1.0 - (2.0 * total / total_distortion - 1.0) / (q @ q) * q)
        step = 1.0
        shrinking = dx < 0.0
        if np.any(shrinking):
            step = min(1.0, 0.99 * float(np.min(-x[shrinking] / dx[shrinking])))
        x = x + step * dx
    return _allocation("consensus-numeric", view, x.tolist(), warnings)


def rates_for_profile(
    net: TreeNetwork, profile: DistortionProfile | ConsensusProfile
) -> RateAllocation:
    """Achievable per-link rates for an existing profile.

    ``0.5 * log2(s2_link / inc_link)`` with subtree (or oriented-subtree)
    variances; links whose incremental distortion exceeds the carried
    variance get rate 0 and a warning instead of a negative rate.
    """
    if not isinstance(profile, (ConsensusProfile, DistortionProfile)):
        raise InputError(f"unsupported profile type {type(profile).__name__}")
    view = net.links(isinstance(profile, ConsensusProfile))
    inc = view.listed(profile.inc)
    clipped = bounds._regime_warnings(view, inc, "rate clipped to 0")
    # A clipped link is rated at its carried variance: 0.5 * log2(1.0) == 0.0.
    inc = [view.carried[k] if k in clipped else d for k, d in enumerate(inc)]
    rates = bounds._link_rates(view, inc)
    warnings = tuple(clipped.values())
    return RateAllocation("profile-rates", view.keyed(rates), profile, fsum(rates), warnings)
