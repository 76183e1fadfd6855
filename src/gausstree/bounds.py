"""Rate bounds and distortion identities on Gaussian tree networks.

Aggregation mode works per uplink (one per non-root node): the exact
distortion-accumulation recursions, the incremental-distortion outer
bound with its square-root entropy penalty, the classical cut-set outer
bound, the Gaussian-codebook inner bound driven by the test-channel
variance recursion, and the gap between the two outer bounds together
with its line-network asymptote ``0.5 * log2(n!)``.

Consensus mode evaluates the same per-link formulas once per directed
edge, with oriented subtrees replacing rooted subtrees and per-root
distortions summing the incremental distortions along each directed
tree.  One private loop per quantity (derived distortions, penalty,
outer bound, test-channel recursion, inner bound) runs over one mode's
:class:`~gausstree.network.LinkSet`; the public consensus functions
only check that every node is weighted and validate the map.

The accumulation sums are the view's exact sums, O(n) in both modes:
``tx`` equals ``math.fsum`` over the strictly upstream links and
``per_root`` equals ``math.fsum`` over the directed tree, bit for bit,
while ``rx = tx + inc`` is one float addition.

All bound values are reported raw -- they may go negative once
incremental distortions approach the subtree variances.  Callers that
want the information-theoretically meaningful value clip at zero via
:meth:`BoundsReport.effective`; reports flag the degenerate regime
explicitly instead of hiding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import fsum, log2
from typing import Mapping

from .errors import ConsistencyError, InfeasibleError, InputError
from .infomeasures import LOG2E
from .network import (
    DirectedEdge,
    LinkSet,
    TreeNetwork,
    normalize_edge_map,
    normalize_link_map,
)

__all__ = [
    "BoundsReport",
    "ConsensusProfile",
    "DistortionProfile",
    "GapReport",
    "InnerBound",
    "OuterBound",
    "classical_consensus_comparator_bits",
    "consensus_derive",
    "consensus_inner",
    "consensus_outer",
    "consensus_report",
    "consensus_test_channel_variances",
    "cutset_bound",
    "derive_distortions",
    "full_report",
    "gap_report",
    "inner_bound",
    "inner_bound_minimized",
    "line_gap_asymptote",
    "outer_bound_closed_form",
    "outer_bound_incremental",
    "outer_bound_penalty",
    "test_channel_variances",
]

#: Slack allowed before the test-channel variance recursion is declared
#: inconsistent with the subtree variances it can never exceed.
_RECURSION_TOL = 1e-9

#: How a test-channel diagnostic names a link and the variance it carries.
_LINK_WORDS = {"aggregation": ("node", "subtree"), "consensus": ("edge", "oriented")}


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class DistortionProfile:
    """Per-link incremental distortions with their derived companions.

    ``inc[i]`` is the incremental distortion on the uplink of node ``i``;
    ``tx[i]`` sums the incremental distortions strictly inside the
    subtree of ``i`` (zero at leaves), ``rx[i] = tx[i] + inc[i]`` exactly,
    and ``total`` is the end-to-end distortion ``sum(inc)``.
    """

    inc: dict[int, float]
    tx: dict[int, float]
    rx: dict[int, float]
    total: float


@dataclass(frozen=True)
class ConsensusProfile:
    """Per-directed-edge incremental distortions and per-root totals.

    ``per_root[k]`` sums ``inc`` over the directed tree towards ``k``;
    ``total`` sums the per-root values (each edge counted once per root
    that uses it).
    """

    inc: dict[DirectedEdge, float]
    tx: dict[DirectedEdge, float]
    rx: dict[DirectedEdge, float]
    per_root: dict[int, float]
    total: float


def derive_distortions(net: TreeNetwork, inc: Mapping[int, float]) -> DistortionProfile:
    """Fill the exact distortion-accumulation recursions for ``inc``.

    Parameters
    ----------
    net : TreeNetwork
    inc : mapping node -> float
        Strictly positive incremental distortion per non-root node.

    Returns
    -------
    DistortionProfile
        With ``rx = tx + inc`` per link and ``total = sum(inc)``, all
        exact; deriving twice is idempotent.
    """
    return _derive(net.links(), normalize_link_map(net, inc, "incremental distortions"))


def _derive(view: LinkSet, inc: dict) -> DistortionProfile | ConsensusProfile:
    # derive_distortions or consensus_derive for a validated map.
    tx, per_root = view.sums(inc)
    rx = {link: tx[link] + inc[link] for link in view.keys}
    total = fsum(per_root.values())
    if view.mode == "consensus":
        return ConsensusProfile(inc=inc, tx=tx, rx=rx, per_root=per_root, total=total)
    return DistortionProfile(inc=inc, tx=tx, rx=rx, total=total)


def consensus_derive(
    net: TreeNetwork, inc: Mapping[tuple[int, int], float]
) -> ConsensusProfile:
    """Derived distortions for consensus: one fold over the directed links.

    ``tx[b -> a]`` sums ``inc`` over the edges strictly below ``b -> a``
    in the directed tree towards ``a``; ``per_root[k]`` sums ``inc`` over
    the full directed tree towards ``k``.
    """
    _require_consensus(net)
    return _derive(net.links(True), normalize_edge_map(net, inc, "incremental distortions"))


def _require_budget(total_distortion: float) -> None:
    if not (total_distortion > 0.0 and math.isfinite(total_distortion)):
        raise InfeasibleError(f"total distortion must be positive, got {total_distortion!r}")


def _require_links(net: TreeNetwork) -> None:
    if not net.sources:
        raise InputError("aggregation needs at least one node besides the root")


def _require_consensus(net: TreeNetwork) -> None:
    if not net.fully_weighted:
        raise InputError(
            "consensus computations need a weight on every node, including the root"
        )
    if net.n_nodes < 2:
        raise InputError("consensus needs at least two nodes")


# ---------------------------------------------------------------------------
# outer bounds


def outer_bound_penalty(net: TreeNetwork, i: int, x: float) -> float:
    """Square-root penalty discounted from the per-link outer bound.

    ``x / (2 w_i^2) + log2(e) / (2 s2) * sqrt(2 x (4 s2 + x))`` with
    ``s2`` the subtree variance of node ``i``.  Zero at ``x = 0``,
    strictly increasing, and of order ``sqrt(x)`` for small ``x``.
    """
    net._require_node(i)
    if i == net.root:
        raise InputError("the root has no uplink, so no penalty term")
    return _link_penalty(net.links(), i, x)


def _link_penalty(view: LinkSet, link, x: float) -> float:
    """:func:`outer_bound_penalty` for a link of the view, read with the
    variance it carries and the weight of its transmitting node (a
    consensus edge uses its oriented subtree and its ``src``)."""
    if not (x >= 0.0 and math.isfinite(x)):
        raise InputError(f"penalty argument must be non-negative, got {x!r}")
    s2, w2 = view.carried[link], view.own[link]
    return x / (2.0 * w2) + LOG2E / (2.0 * s2) * math.sqrt(2.0 * x * (4.0 * s2 + x))


@dataclass(frozen=True)
class OuterBound:
    """A summed lower bound on the sum rate plus its per-link pieces."""

    total_bits: float
    per_link_bits: dict


def outer_bound_incremental(net: TreeNetwork, profile: DistortionProfile) -> OuterBound:
    """Incremental-distortion outer bound on the aggregation sum rate.

    Per link: ``0.5 * (log2(s2_i / inc_i) - penalty_i(tx_i))``, reported
    raw (no clipping).
    """
    return _outer_bound(net.links(), profile)


def _outer_bound(view: LinkSet, profile) -> OuterBound:
    per_link = {}
    for link in view.keys:
        per_link[link] = 0.5 * (
            log2(view.carried[link] / profile.inc[link])
            - _link_penalty(view, link, profile.tx[link])
        )
    return OuterBound(fsum(per_link[link] for link in view.keys), per_link)


def outer_bound_closed_form(net: TreeNetwork, total_distortion: float) -> float:
    """Scheme-independent closed-form lower bound at total distortion ``D``:
    ``0.5 * log2(prod(s2_i) / (D/n)^n) - 0.5 * sum_i penalty_i(D)``."""
    _require_budget(total_distortion)
    _require_links(net)
    view = net.links()
    penalty = fsum(_link_penalty(view, i, total_distortion) for i in view.keys)
    return _equal_split_rate(net, total_distortion / len(net.sources)) - 0.5 * penalty


def cutset_bound(net: TreeNetwork, profile: DistortionProfile) -> float:
    """Cut-set outer bound ``0.5 * sum_i log2(s2_i / rx_i)``."""
    return fsum(
        0.5 * log2(net.subtree_variances[i] / profile.rx[i]) for i in net.sources
    )


@dataclass(frozen=True)
class GapReport:
    """Difference between the incremental and cut-set outer bounds."""

    delta_r_bits: float
    per_link_bits: dict


def gap_report(net: TreeNetwork, profile: DistortionProfile) -> GapReport:
    """Per-link and total gap ``incremental bound - cut-set bound``.

    Each link contributes ``0.5 * log2(rx_i / inc_i) - 0.5 * penalty_i(tx_i)``;
    leaves contribute exactly zero.
    """
    view = net.links()
    per_link = {}
    for i in view.keys:
        per_link[i] = 0.5 * (
            log2(profile.rx[i] / profile.inc[i])
            - _link_penalty(view, i, profile.tx[i])
        )
    return GapReport(fsum(per_link[i] for i in view.keys), per_link)


def line_gap_asymptote(n: int) -> float:
    """Small-distortion gap ``0.5 * log2(n!)`` on an equal-weight line,
    computed as a log sum so large ``n`` cannot overflow."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"line length must be a positive integer, got {n!r}")
    return 0.5 * fsum(log2(k) for k in range(1, n + 1))


def consensus_outer(net: TreeNetwork, profile: ConsensusProfile) -> OuterBound:
    """Incremental-distortion outer bound on the consensus sum rate,
    summed over all directed edges with oriented-subtree variances."""
    _require_consensus(net)
    return _outer_bound(net.links(True), profile)


def classical_consensus_comparator_bits(n: int, total_distortion: float) -> float:
    """Order-level classical comparator ``max(0, n/2 * log2(1/(n^1.5 D)))``
    for the consensus sum rate.  Display only: the constants are
    order-level, not sharpened, so nothing is asserted against it."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"node count must be a positive integer, got {n!r}")
    _require_budget(total_distortion)
    return max(0.0, 0.5 * n * log2(1.0 / (n**1.5 * total_distortion)))


# ---------------------------------------------------------------------------
# inner bounds (test-channel recursions)


def test_channel_variances(net: TreeNetwork, d: Mapping[int, float]) -> dict[int, float]:
    """Estimate variances of the aggregation test-channel cascade.

    Leaves start at ``w^2``; an inner node adds its own ``w^2`` to the
    description variances ``sigma_hat^2 - d`` of its children.  Raises
    :class:`~gausstree.errors.InfeasibleError` when some ``d_i`` exceeds
    the variance the channel at ``i`` would have to describe.  The result
    never exceeds the subtree variances; a violation beyond round-off is
    reported as an internal-consistency failure.
    """
    return _test_channel_variances(net.links(), normalize_link_map(net, d, "distortion parameters"))


def _test_channel_variances(view: LinkSet, d: Mapping) -> dict:
    # One fold: a link's estimate variance is w_src^2 plus the description
    # variances sigma_hat - d of the links that feed it.
    what, ceiling = _LINK_WORDS[view.mode]
    carried, own = view.carried, view.own
    sigma_hat: dict = {}

    def describe(link, src: int, fed: list) -> float:
        var = fsum([own[link], *fed])
        if d[link] > var:
            raise InfeasibleError(
                f"{what} {link}: distortion {d[link]:g} exceeds test-channel variance {var:g}"
            )
        s2 = carried[link]
        if var > s2 * (1.0 + _RECURSION_TOL):
            raise ConsistencyError(
                f"{what} {link}: test-channel variance {var:g} exceeds {ceiling} variance {s2:g}"
            )
        sigma_hat[link] = var
        return var - d[link]

    view.fold(describe)
    return sigma_hat


@dataclass(frozen=True)
class InnerBound:
    """Achievable (rate, distortion) pair in the infinite-blocklength limit."""

    rate_bits: float
    distortion: float
    sigma_hat: dict = field(repr=False)
    per_link_rate_bits: dict = field(repr=False)


def inner_bound(net: TreeNetwork, d: Mapping[int, float]) -> InnerBound:
    """Gaussian-codebook inner bound for aggregation.

    Rate ``0.5 * sum_i log2(s2_i / d_i)`` (subtree variances upper-bound
    the test-channel variances, so this is achievable) and distortion
    ``sum_i d_i``; validates the test-channel variance recursion.
    """
    d = normalize_link_map(net, d, "distortion parameters")
    return _inner_bound(net.links(), d, fsum(d.values()))


def _inner_bound(view: LinkSet, d: Mapping, distortion: float | None = None) -> InnerBound:
    # inner_bound or consensus_inner for a validated map; a caller holding
    # its end-to-end distortion passes it instead of summing d again.
    sigma_hat = _test_channel_variances(view, d)
    per_link = _link_rates(view, d)
    if distortion is None:
        _, per_root = view.sums(d)
        distortion = fsum(per_root.values())
    return InnerBound(
        rate_bits=fsum(per_link[link] for link in view.keys),
        distortion=distortion,
        sigma_hat=sigma_hat,
        per_link_rate_bits=per_link,
    )


def _link_rates(view: LinkSet, inc: Mapping) -> dict:
    # The Gaussian rate 0.5 * log2(carried / inc) of every link, raw.
    return {link: 0.5 * log2(view.carried[link] / inc[link]) for link in view.keys}


def inner_bound_minimized(net: TreeNetwork, total_distortion: float) -> float:
    """Inner-bound sum rate at the equal split ``d_i = D/n``:
    ``0.5 * log2(prod(s2_i) / (D/n)^n)``."""
    _require_budget(total_distortion)
    _require_links(net)
    share = total_distortion / len(net.sources)
    test_channel_variances(net, {i: share for i in net.sources})
    return _equal_split_rate(net, share)


def _equal_split_rate(net: TreeNetwork, share: float) -> float:
    log_product = fsum(log2(net.subtree_variances[i]) for i in net.sources)
    return 0.5 * (log_product - len(net.sources) * log2(share))


def consensus_test_channel_variances(
    net: TreeNetwork, d: Mapping[tuple[int, int], float]
) -> dict[DirectedEdge, float]:
    """Directed test-channel variance recursion for consensus."""
    _require_consensus(net)
    d = normalize_edge_map(net, d, "distortion parameters")
    return _test_channel_variances(net.links(True), d)


def consensus_inner(net: TreeNetwork, d: Mapping[tuple[int, int], float]) -> InnerBound:
    """Gaussian-codebook inner bound for consensus: rate summed over all
    directed edges, distortion summed per root over its directed tree."""
    _require_consensus(net)
    return _inner_bound(net.links(True), normalize_edge_map(net, d, "distortion parameters"))


# ---------------------------------------------------------------------------
# assembled reports


@dataclass(frozen=True)
class BoundsReport:
    """Every bound evaluated for one network at one distortion budget.

    Aggregation-only fields are ``None`` in consensus mode.  Values are
    raw; :meth:`effective` clips at zero.  ``regime_warnings`` lists the
    links whose incremental distortion reaches the variance they carry,
    where the log terms stop being meaningful.
    """

    mode: str
    total_distortion: float
    outer_incremental_bits: float
    cutset_bits: float | None
    outer_closed_form_bits: float | None
    inner_bits: float
    inner_minimized_bits: float | None
    gap_inner_outer_bits: float
    gap_incremental_cutset_bits: float | None
    per_link_rates_bits: dict
    classical_comparator_bits: float | None = None
    regime_warnings: tuple[str, ...] = ()

    def effective(self) -> dict[str, float]:
        """Bound values clipped at zero (rates cannot be negative)."""
        out = {}
        for name in (
            "outer_incremental_bits",
            "cutset_bits",
            "outer_closed_form_bits",
            "inner_bits",
            "inner_minimized_bits",
        ):
            value = getattr(self, name)
            if value is not None:
                out[name] = max(0.0, value)
        return out

    def to_json_dict(self) -> dict:
        links = [
            {"link": _link_label(key), "rate_bits": rate}
            for key, rate in sorted(self.per_link_rates_bits.items())
        ]
        out: dict[str, object] = {
            "mode": self.mode,
            "total_distortion": self.total_distortion,
            "outer_incremental_bits": self.outer_incremental_bits,
            "inner_bits": self.inner_bits,
            "gap_inner_outer_bits": self.gap_inner_outer_bits,
            "per_link_rates_bits": links,
            "regime_warnings": list(self.regime_warnings),
        }
        if self.cutset_bits is not None:
            out["cutset_bits"] = self.cutset_bits
            out["delta_r_bits"] = self.gap_incremental_cutset_bits
        if self.outer_closed_form_bits is not None:
            out["outer_closed_form_bits"] = self.outer_closed_form_bits
        if self.inner_minimized_bits is not None:
            out["inner_minimized_bits"] = self.inner_minimized_bits
        if self.classical_comparator_bits is not None:
            out["classical_comparator_bits"] = self.classical_comparator_bits
        for name, value in self.effective().items():
            out["effective_" + name] = value
        return out

    def to_csv_rows(self) -> list[list]:
        header = [
            "link",
            "rate_bits",
            "outer_incremental_bits",
            "cutset_bits",
            "inner_bits",
            "delta_r_bits",
        ]
        rows: list[list] = [header]
        for key, rate in sorted(self.per_link_rates_bits.items()):
            rows.append([_link_label(key), rate, "", "", "", ""])
        rows.append(
            [
                "total",
                "",
                self.outer_incremental_bits,
                self.cutset_bits if self.cutset_bits is not None else "",
                self.inner_bits,
                self.gap_incremental_cutset_bits
                if self.gap_incremental_cutset_bits is not None
                else "",
            ]
        )
        return rows


def _link_label(key) -> str:
    if isinstance(key, DirectedEdge):
        return str(key)
    return str(int(key))


def _regime_warnings(view: LinkSet, inc: Mapping) -> tuple[str, ...]:
    warnings = []
    for key in view.keys:
        if inc[key] >= view.carried[key]:
            warnings.append(
                f"link {_link_label(key)}: incremental distortion {inc[key]:g} reaches "
                f"the carried variance {view.carried[key]:g}; bound terms are non-positive"
            )
    return tuple(warnings)


def full_report(
    net: TreeNetwork,
    total_distortion: float | None = None,
    inc: Mapping[int, float] | None = None,
) -> BoundsReport:
    """Aggregation :class:`BoundsReport`.

    Either pass ``total_distortion`` (profiled as the equal split
    ``d = D/n``) or an explicit per-link map ``inc`` (whose sum becomes
    the budget the closed-form bounds are evaluated at).
    """
    equal_split = inc is None
    if equal_split:
        if total_distortion is None:
            raise InputError("either a total distortion or a per-link map is required")
        _require_budget(total_distortion)
        _require_links(net)
        n = len(net.sources)
        inc = {i: total_distortion / n for i in net.sources}
    # The one validation of the map (an equal split's D/n can underflow to 0).
    inc = normalize_link_map(net, inc, "incremental distortions")
    if not equal_split:
        total_distortion = fsum(inc.values())
    view = net.links()
    profile = _derive(view, inc)
    outer = _outer_bound(view, profile)
    cut = cutset_bound(net, profile)
    closed = outer_bound_closed_form(net, total_distortion)
    inner = _inner_bound(view, inc, profile.total)
    if equal_split:  # _inner_bound has just checked this very split
        minimized = _equal_split_rate(net, total_distortion / len(net.sources))
    else:
        minimized = inner_bound_minimized(net, total_distortion)
    gap = gap_report(net, profile)
    return BoundsReport(
        mode="aggregation",
        total_distortion=total_distortion,
        outer_incremental_bits=outer.total_bits,
        cutset_bits=cut,
        outer_closed_form_bits=closed,
        inner_bits=inner.rate_bits,
        inner_minimized_bits=minimized,
        gap_inner_outer_bits=inner.rate_bits - outer.total_bits,
        gap_incremental_cutset_bits=gap.delta_r_bits,
        per_link_rates_bits=inner.per_link_rate_bits,
        regime_warnings=_regime_warnings(view, inc),
    )


def consensus_report(
    net: TreeNetwork, inc: Mapping[tuple[int, int], float], total_distortion: float
) -> BoundsReport:
    """Consensus :class:`BoundsReport` for an explicit per-edge profile."""
    return _consensus_report(net, consensus_derive(net, inc), total_distortion)


def _consensus_report(net: TreeNetwork, profile: ConsensusProfile, total: float) -> BoundsReport:
    # consensus_report on a profile made by consensus_derive.
    view = net.links(True)
    outer = _outer_bound(view, profile)
    inner = _inner_bound(view, profile.inc, profile.total)
    return BoundsReport(
        mode="consensus",
        total_distortion=total,
        outer_incremental_bits=outer.total_bits,
        cutset_bits=None,
        outer_closed_form_bits=None,
        inner_bits=inner.rate_bits,
        inner_minimized_bits=None,
        gap_inner_outer_bits=inner.rate_bits - outer.total_bits,
        gap_incremental_cutset_bits=None,
        per_link_rates_bits=inner.per_link_rate_bits,
        classical_comparator_bits=classical_consensus_comparator_bits(net.n_nodes, total),
        regime_warnings=_regime_warnings(view, profile.inc),
    )
