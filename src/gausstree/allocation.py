"""Choose per-link incremental distortions for a total distortion budget.

Equal split is the canonical aggregation allocator (optimal only in the
zero-distortion limit, like reverse water-filling across the parallel
partial sums).  A penalized numeric allocator explores finite budgets by
minimizing the full outer-bound objective; it guarantees never to return
an objective worse than equal split and makes no optimality claim.

Consensus allocation solves ``min 0.5 * sum_e log2(s2_e / inc_e)`` over
directed edges subject to ``sum_e multiplicity_e * inc_e <= D``.  The
stationarity conditions give the closed form
``inc_e = D / (E_d * multiplicity_e)`` with ``E_d = 2(n-1)`` directed
edges, so that ``multiplicity_e * inc_e`` is the same on every edge; an
independent equality-constrained Newton solver cross-validates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum, log2

import numpy as np

from . import bounds
from .bounds import ConsensusProfile, DistortionProfile
from .errors import ConsistencyError, InfeasibleError, InputError
from .network import DirectedEdge, TreeNetwork, directed_edges

__all__ = [
    "RateAllocation",
    "allocate_consensus",
    "allocate_consensus_numeric",
    "allocate_equal_incremental",
    "allocate_numeric_penalized",
    "rates_for_profile",
]

_LN2 = math.log(2.0)

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
        edge = net.links(isinstance(self.profile, ConsensusProfile)).edge
        for key in sorted(self.per_link_rate_bits):
            src, dst = edge[key]
            records.append(
                {
                    "from": src,
                    "to": dst,
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
    inc = {i: total_distortion / len(view.keys) for i in view.keys}
    # inner_bound validates the map (D/n can underflow to 0.0) and its
    # feasibility, so deriving the profile need not validate it again.
    inner = bounds.inner_bound(net, inc)
    profile = bounds._derive(view, inc)
    return RateAllocation(
        method="equal-split",
        per_link_rate_bits=inner.per_link_rate_bits,
        profile=profile,
        sum_rate_bits=fsum(inner.per_link_rate_bits[i] for i in view.keys),
    )


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

    inc_map = dict(zip(links, inc.tolist()))
    profile = bounds.derive_distortions(net, inc_map)
    rates = bounds._link_rates(net.links(), inc_map)
    return RateAllocation(
        method="numeric-penalized",
        per_link_rate_bits=rates,
        profile=profile,
        sum_rate_bits=fsum(rates[i] for i in links),
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# consensus


def _consensus_setup(net: TreeNetwork, total_distortion: float):
    total_distortion = _check_budget(total_distortion)
    bounds._require_consensus(net)
    edges = directed_edges(net)
    mult = np.array([net.cascade.multiplicity(e) for e in edges], dtype=float)
    return total_distortion, edges, mult


def allocate_consensus(
    net: TreeNetwork, total_distortion: float, cross_validate: bool = True
) -> RateAllocation:
    """Stationarity closed form for the consensus rate-allocation program.

    ``inc_e = D / (E_d * multiplicity_e)`` keeps ``multiplicity_e * inc_e``
    constant across the ``E_d = 2(n-1)`` directed edges and makes the
    budget constraint tight.  With ``cross_validate`` (default) the
    result is checked against the independent Newton solver to 1e-6 bits
    of sum rate and 1e-8 relative per-edge distortion.
    """
    total_distortion, edges, mult = _consensus_setup(net, total_distortion)
    inc_vec = total_distortion / (len(edges) * mult)
    allocation = _consensus_allocation("consensus-kkt", net, edges, inc_vec)
    if cross_validate:
        numeric = allocate_consensus_numeric(net, total_distortion)
        if abs(numeric.sum_rate_bits - allocation.sum_rate_bits) > 1e-6:
            raise ConsistencyError(
                "closed-form and numeric consensus allocations disagree by "
                f"{abs(numeric.sum_rate_bits - allocation.sum_rate_bits):g} bits"
            )
        for e in edges:
            a, b = allocation.profile.inc[e], numeric.profile.inc[e]
            if abs(a - b) > 1e-8 * a:
                raise ConsistencyError(
                    f"edge {e}: closed-form inc {a:g} vs numeric {b:g}"
                )
    return allocation


def allocate_consensus_numeric(net: TreeNetwork, total_distortion: float) -> RateAllocation:
    """Equality-constrained Newton solve of the consensus program.

    Minimizes ``sum_e 0.5*log2(s2_e/x_e)`` subject to ``m @ x = D`` from
    the feasible uniform start, taking damped Newton steps restricted to
    the constraint plane.  Converges quadratically; used as the numeric
    arbiter for the closed form.
    """
    total_distortion, edges, mult = _consensus_setup(net, total_distortion)
    x = np.full(len(edges), total_distortion / mult.sum())
    for _ in range(120):
        grad = -0.5 / (_LN2 * x)
        hess_diag = 0.5 / (_LN2 * x * x)
        # Newton step on the KKT system with a diagonal Hessian:
        # dx = -H^-1 (grad + nu * m) with nu chosen so m @ dx = 0.
        hinv_grad = grad / hess_diag
        hinv_mult = mult / hess_diag
        nu = -(mult @ hinv_grad) / (mult @ hinv_mult)
        dx = -(hinv_grad + nu * hinv_mult)
        step = 1.0
        shrinking = dx < 0.0
        if np.any(shrinking):
            step = min(1.0, 0.99 * float(np.min(-x[shrinking] / dx[shrinking])))
        x_next = x + step * dx
        done = float(np.max(np.abs(x_next - x) / x)) < 1e-15
        x = x_next
        if done:
            break
    return _consensus_allocation("consensus-numeric", net, edges, x)


def _consensus_allocation(
    method: str, net: TreeNetwork, edges: tuple[DirectedEdge, ...], inc_vec: np.ndarray
) -> RateAllocation:
    inc = dict(zip(edges, inc_vec.tolist()))
    profile = bounds.consensus_derive(net, inc)
    rates = bounds._link_rates(net.links(True), inc)
    return RateAllocation(
        method=method,
        per_link_rate_bits=rates,
        profile=profile,
        sum_rate_bits=fsum(rates[e] for e in edges),
    )


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
    rates = {}
    warnings = []
    for key in view.keys:
        inc, s2 = profile.inc[key], view.carried[key]
        if inc >= s2:
            rates[key] = 0.0
            warnings.append(
                f"link {key}: incremental distortion {inc:g} reaches the carried "
                f"variance {s2:g}; rate clipped to 0"
            )
        else:
            rates[key] = 0.5 * log2(s2 / inc)
    return RateAllocation(
        method="profile-rates",
        per_link_rate_bits=rates,
        profile=profile,
        sum_rate_bits=fsum(rates[k] for k in view.keys),
        warnings=tuple(warnings),
    )
