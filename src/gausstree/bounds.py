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
tree.  One private loop per log term (the outer bound, which the gap
reuses with ``rx``, and the link rates, which the cut-set bound reuses
with ``rx``) runs over one mode's :class:`~gausstree.network.LinkSet`,
whose ``variances`` is the test-channel recursion.  Private functions take
checked lists indexed by link, and every CLI path reaches the bounds
through them; a public function that takes a caller's map checks it once
(:meth:`~gausstree.network.LinkSet.read`) and keys what it returns.

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
from dataclasses import dataclass
from math import fsum, log2
from typing import Mapping

from .errors import ConsistencyError, InfeasibleError, InputError
from .infomeasures import LOG2E
from .network import DirectedEdge, LinkSet, TreeNetwork

__all__ = [
    "BoundsReport",
    "ConsensusProfile",
    "DistortionProfile",
    "OuterBound",
    "classical_consensus_comparator_bits",
    "consensus_report",
    "derive_distortions",
    "full_report",
    "inner_bound_minimized",
    "line_gap_asymptote",
    "outer_bound_closed_form",
    "outer_bound_incremental",
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
    view = net.links()
    return _derive(view, view.read(inc, "incremental distortions"))


def _accumulate(view: LinkSet, inc: list) -> tuple[list, list, list, float]:
    # (tx, rx, per_sink, total) of checked incremental distortions.
    tx, per_sink, total = view.sums(inc)
    return tx, [t + d for t, d in zip(tx, inc)], per_sink, total


def _derive(view: LinkSet, inc: list, fold=None) -> DistortionProfile | ConsensusProfile:
    # The keyed profile of checked distortions, in either mode, from their
    # ``_accumulate`` fold when the caller holds it.
    tx, rx, per_sink, total = fold or _accumulate(view, inc)
    inc, tx, rx = view.keyed(inc), view.keyed(tx), view.keyed(rx)
    if view.mode == "consensus":
        per_root = dict(zip(view.sinks, per_sink))
        return ConsensusProfile(inc=inc, tx=tx, rx=rx, per_root=per_root, total=total)
    return DistortionProfile(inc=inc, tx=tx, rx=rx, total=total)


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


def _consensus_view(net: TreeNetwork) -> LinkSet:
    # The consensus links, once every node is weighted and there are two.
    _require_consensus(net)
    return net.links(True)


# ---------------------------------------------------------------------------
# outer bounds


def _link_penalty(view: LinkSet, link: int, x: float) -> float:
    """Square-root penalty discounted from the outer bound of ``link``:
    ``x / (2 w^2) + log2(e) / (2 s2) * sqrt(2 x (4 s2 + x))``, with ``s2``
    the variance the link carries and ``w`` the weight of its transmitting
    node (a consensus edge uses its oriented subtree and its ``src``).
    Zero at ``x = 0``, strictly increasing, and of order ``sqrt(x)`` for
    small ``x``."""
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
    view = net.links()
    total, per_link = _outer_bound(view, view.listed(profile.inc), view.listed(profile.tx))
    return OuterBound(total, view.keyed(per_link))


def _outer_bound(view: LinkSet, inc: list, tx: list, variance: list | None = None):
    # (total, per link) of 0.5 * (log2(variance / inc) - penalty(tx)); the gap passes rx.
    variance = view.carried if variance is None else variance
    try:
        per_link = [
            0.5 * (log2(variance[k] / inc[k]) - _link_penalty(view, k, tx[k]))
            for k in range(len(inc))
        ]
    except ValueError:
        _refuse_underflow(view, variance, inc)
        raise
    return fsum(per_link), per_link


def _refuse_underflow(view: LinkSet, num: list, den: list) -> None:
    # A log2 term failed: name the first link whose quotient underflows to 0.
    for k, key in enumerate(view.keys):
        if num[k] / den[k] == 0.0:
            raise InfeasibleError(
                f"link {key}: the ratio {num[k]:g} / {den[k]:g} "
                "underflows to 0, so its log term is undefined"
            )


def outer_bound_closed_form(net: TreeNetwork, total_distortion: float) -> float:
    """Scheme-independent closed-form lower bound at total distortion ``D``:
    ``0.5 * log2(prod(s2_i) / (D/n)^n) - 0.5 * sum_i penalty_i(D)``."""
    _require_budget(total_distortion)
    _require_links(net)
    view = net.links()
    share = view.positive(view.split(total_distortion), "incremental distortions")
    penalty = fsum(_link_penalty(view, k, total_distortion) for k in range(len(share)))
    return fsum(_link_rates(view, share)) - 0.5 * penalty


def line_gap_asymptote(n: int) -> float:
    """Small-distortion gap ``0.5 * log2(n!)`` on an equal-weight line,
    computed as a log sum so large ``n`` cannot overflow."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"line length must be a positive integer, got {n!r}")
    return 0.5 * fsum(log2(k) for k in range(1, n + 1))


def classical_consensus_comparator_bits(n: int, total_distortion: float) -> float:
    """Order-level classical comparator ``max(0, n/2 * log2(1/(n^1.5 D)))``
    for the consensus sum rate.  Display only: the constants are
    order-level, not sharpened, so nothing is asserted against it."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"node count must be a positive integer, got {n!r}")
    _require_budget(total_distortion)
    return max(0.0, 0.5 * n * -log2(n**1.5 * total_distortion))


# ---------------------------------------------------------------------------
# inner bounds (test-channel recursions)


def _test_channel_variances(view: LinkSet, d: list) -> list:
    # A link passes on the description variance sigma_hat - d.
    what, ceiling = _LINK_WORDS[view.mode]
    carried, keys = view.carried, view.keys

    def describe(k: int, var: float) -> float:
        if d[k] > var:
            raise InfeasibleError(
                f"{what} {keys[k]}: distortion {d[k]:g} exceeds test-channel variance {var:g}"
            )
        if var > carried[k] * (1.0 + _RECURSION_TOL):
            raise ConsistencyError(
                f"{what} {keys[k]}: test-channel variance {var:g} exceeds {ceiling} "
                f"variance {carried[k]:g}"
            )
        return var - d[k]

    return view.variances(describe)


def _inner_bound(view: LinkSet, d: list) -> tuple[float, list]:
    # (sum rate, per link) of the Gaussian-codebook inner bound for checked
    # distortion parameters, once the test-channel recursion accepts them.
    _test_channel_variances(view, d)
    per_link = _link_rates(view, d)
    return fsum(per_link), per_link


def _link_rates(view: LinkSet, inc: list) -> list:
    # The Gaussian rate 0.5 * log2(carried / inc) of every link, raw.
    carried = view.carried
    try:
        return [0.5 * log2(c / d) for c, d in zip(carried, inc)]
    except ValueError:
        _refuse_underflow(view, carried, inc)
        raise


def inner_bound_minimized(net: TreeNetwork, total_distortion: float) -> float:
    """Inner-bound sum rate at the equal split ``d_i = D/n``:
    ``0.5 * log2(prod(s2_i) / (D/n)^n)``."""
    _require_budget(total_distortion)
    _require_links(net)
    view = net.links()
    share = view.positive(view.split(total_distortion), "distortion parameters")
    _test_channel_variances(view, share)
    return fsum(_link_rates(view, share))


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
            {"link": str(key), "rate_bits": rate}
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
            rows.append([str(key), rate, "", "", "", ""])
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


def _regime_warnings(
    view: LinkSet, inc: list, consequence: str = "bound terms are non-positive"
) -> dict[int, str]:
    # One warning per link whose incremental distortion reaches its carried variance.
    carried = view.carried
    return {
        k: f"link {key}: incremental distortion {inc[k]:g} reaches "
        f"the carried variance {carried[k]:g}; {consequence}"
        for k, key in enumerate(view.keys)
        if inc[k] >= carried[k]
    }


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
    view = net.links()
    equal_split = inc is None
    if equal_split:
        if total_distortion is None:
            raise InputError("either a total distortion or a per-link map is required")
        _require_budget(total_distortion)
        _require_links(net)
        # The one check of the split (D/n can underflow to 0).
        inc = view.positive(view.split(total_distortion), "incremental distortions")
    else:
        inc = view.read(inc, "incremental distortions")
    tx, rx, _, total = _accumulate(view, inc)
    if not equal_split:
        total_distortion = total
    outer, _ = _outer_bound(view, inc, tx)
    cut = fsum(_link_rates(view, rx))
    closed = outer_bound_closed_form(net, total_distortion)
    inner, per_link = _inner_bound(view, inc)
    # An equal split has just been rated, and checked, by the inner bound.
    minimized = inner if equal_split else inner_bound_minimized(net, total_distortion)
    gap, _ = _outer_bound(view, inc, tx, rx)
    return BoundsReport(
        mode="aggregation",
        total_distortion=total_distortion,
        outer_incremental_bits=outer,
        cutset_bits=cut,
        outer_closed_form_bits=closed,
        inner_bits=inner,
        inner_minimized_bits=minimized,
        gap_inner_outer_bits=inner - outer,
        gap_incremental_cutset_bits=gap,
        per_link_rates_bits=view.keyed(per_link),
        regime_warnings=tuple(_regime_warnings(view, inc).values()),
    )


def consensus_report(
    net: TreeNetwork, inc: Mapping[tuple[int, int], float], total_distortion: float
) -> BoundsReport:
    """Consensus :class:`BoundsReport` for an explicit per-edge profile."""
    view = _consensus_view(net)
    inc = view.read(inc, "incremental distortions")
    return _consensus_report(net, inc, _accumulate(view, inc)[0], total_distortion)


def _consensus_report(net: TreeNetwork, inc: list, tx: list, total: float) -> BoundsReport:
    # consensus_report for checked distortions and their upstream sums.
    view = net.links(True)
    outer, _ = _outer_bound(view, inc, tx)
    inner, per_link = _inner_bound(view, inc)
    return BoundsReport(
        mode="consensus",
        total_distortion=total,
        outer_incremental_bits=outer,
        cutset_bits=None,
        outer_closed_form_bits=None,
        inner_bits=inner,
        inner_minimized_bits=None,
        gap_inner_outer_bits=inner - outer,
        gap_incremental_cutset_bits=None,
        per_link_rates_bits=view.keyed(per_link),
        classical_comparator_bits=classical_consensus_comparator_bits(net.n_nodes, total),
        regime_warnings=tuple(_regime_warnings(view, inc).values()),
    )
