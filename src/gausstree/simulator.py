"""Numerical validation of the distortion-accumulation theory.

Two layers:

* an exact analytic oracle (:func:`analytic_mmse_check`) that expresses
  the whole test-channel cascade as scalar variables that are linear in a
  set of independent Gaussian primitives, evaluates every MMSE distortion
  by linear conditioning (Schur complements) on the induced joint
  covariance, and asserts the accumulation identities to 1e-10 relative;

* a Monte-Carlo simulator that reproduces the achieved distortions
  empirically with 3-sigma confidence intervals.

Both layers walk the cascade with the network's link fold
(:meth:`~gausstree.network.LinkCascade.fold`): the oracle builds each
link's estimate and description as linear rows, and the Monte-Carlo
engine draws them.  Each layer has one body for both modes, and only its
setup branches on the mode: the observing nodes, the links, the sinks
and the reference sums (aggregation is consensus restricted to the
directed tree towards the root).  A scheme is an encoder that turns a
link's estimate into its description.
Two encoders exist: the test channel (aggregation and consensus), where
joint-typicality encoding is replaced by exact sampling from the
test-channel conditional law of the description given the estimate -- at
infinite blocklength the two coincide, and the conditional law preserves
every distortion identity checked here -- and a subtractive-dither
uniform scalar quantizer (an aggregation baseline).

Randomness is counter-based: each (seed, trial, role, entity) tuple keys
an independent Philox stream, so per-node streams are reproducible and
insensitive to evaluation order.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, field, replace
from math import fsum
from typing import Callable, Mapping

import numpy as np
from numpy.random import Generator, Philox

from . import bounds
from .allocation import RateAllocation
from .bounds import DistortionProfile
from .errors import ConsistencyError, InputError
from .infomeasures import test_channel_law
from .network import DirectedEdge, TreeNetwork, directed_edges

__all__ = [
    "AnalyticModel",
    "SimulationConfig",
    "SimulationResult",
    "analytic_mmse_check",
    "matched_test_channel_distortions",
    "simulate_aggregation",
    "simulate_consensus",
    "simulate_dithered_baseline",
]

_IDENTITY_TOL = 1e-10
_PSD_TOL = 1e-10

#: Clipping range of the dithered quantizer, in design standard deviations.
_DITHER_CLIP_SIGMAS = 4.0

_ROLE_SOURCE = 0
_ROLE_CHANNEL = 1
_ROLE_DITHER = 2


@dataclass(frozen=True)
class SimulationConfig:
    """Monte-Carlo run parameters.

    ``blocklength`` samples per node vector, ``trials`` independent
    repetitions and a 64-bit root ``seed``.  The scheme and the mode are
    chosen by the ``simulate_*`` function called.
    """

    blocklength: int
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.blocklength, int) or self.blocklength < 1:
            raise InputError(f"blocklength must be a positive integer, got {self.blocklength!r}")
        if not isinstance(self.trials, int) or self.trials < 2:
            raise InputError(f"trials must be an integer >= 2, got {self.trials!r}")
        if not isinstance(self.seed, int) or not (0 <= self.seed < 2**64):
            raise InputError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.blocklength * self.trials < 1000:
            _warnings.warn(
                "fewer than 1000 total samples; confidence intervals will be wide",
                stacklevel=3,
            )


def _stream(seed: int, trial: int, role: int, index: int) -> Generator:
    # One Philox stream per (seed, trial, role, entity); streams can never
    # collide because they start in distinct 2^64-sized counter blocks.
    counter = np.array([0, role, index, trial], dtype=np.uint64)
    key = np.array([seed, 0], dtype=np.uint64)
    return Generator(Philox(counter=counter, key=key))


# ---------------------------------------------------------------------------
# exact analytic oracle


@dataclass(frozen=True, eq=False)
class AnalyticModel:
    """Exact joint Gaussian law of the scalar test-channel cascade.

    ``joint_covariance`` stacks all sources, all descriptions and all
    estimates (ordering in ``labels``).  The distortion dictionaries are
    computed by conditioning, not by the accumulation recursions, so they
    double as an independent check of those recursions.
    """

    mode: str
    labels: tuple[str, ...]
    joint_covariance: np.ndarray = field(repr=False)
    inc: dict
    tx: dict
    rx: dict
    total: float
    per_root: dict | None = None
    link_order: tuple = ()
    incremental_error_cov: np.ndarray = field(default=None, repr=False)
    receiver_gains: dict = field(default_factory=dict, repr=False)
    receiver_info: dict = field(default_factory=dict, repr=False)


class _LinearGaussian:
    """Zero-mean variables as linear combinations of independent primitives."""

    def __init__(self, primitive_variances: list[float]):
        self.prim_var = np.asarray(primitive_variances, dtype=float)
        self.rows: dict[object, np.ndarray] = {}

    def basis(self, index: int) -> np.ndarray:
        row = np.zeros(self.prim_var.size)
        row[index] = 1.0
        return row

    def variance(self, row: np.ndarray) -> float:
        return float(row @ (self.prim_var * row))

    def covariance_matrix(self, keys: list) -> np.ndarray:
        stack = np.vstack([self.rows[k] for k in keys])
        return stack @ (self.prim_var[:, None] * stack.T)

    def condition(self, target: np.ndarray, info_keys: list):
        """MMSE of ``target`` given the listed variables.

        Returns ``(gain, estimate_row, error_variance)``; the minimal-norm
        gain is used when the information covariance is singular (which
        happens only for rate-0 descriptions).
        """
        info = np.vstack([self.rows[k] for k in info_keys])
        cov_ii = info @ (self.prim_var[:, None] * info.T)
        cov_it = info @ (self.prim_var * target)
        gain, *_ = np.linalg.lstsq(cov_ii, cov_it, rcond=None)
        estimate = gain @ info
        return gain, estimate, self.variance(target) - float(gain @ cov_it)


def _sum_into(start, fed: list):
    # Left to right from ``start``: this order of float additions is part of
    # every seeded output.
    for value in fed:
        start = start + value
    return start


def _relative_check(name: str, got: float, want: float, scale: float) -> None:
    if abs(got - want) > _IDENTITY_TOL * max(abs(scale), 1e-300) + 1e-14:
        raise ConsistencyError(f"{name}: got {got!r}, expected {want!r}")


def _check_psd(cov: np.ndarray) -> None:
    eigs = np.linalg.eigvalsh(0.5 * (cov + cov.T))
    scale = max(float(eigs[-1]), 1.0)
    if eigs[0] < -_PSD_TOL * scale:
        raise ConsistencyError(
            f"analytic joint covariance is not PSD (min eigenvalue {eigs[0]:g})"
        )


def analytic_mmse_check(
    net: TreeNetwork, d: Mapping, mode: str = "aggregation"
) -> AnalyticModel:
    """Build the exact scalar model and verify distortion accumulation.

    Every estimate is a linear function of the independent primitives
    (unit-variance sources and the conditional test-channel noises), so
    all MMSE quantities are exact.  Verifies, per link: the incremental
    distortion equals the tuning parameter, the transmit distortion sums
    the strictly-downstream parameters, and receive = transmit +
    incremental; per sink, that its MMSE estimate is the sum of what it
    receives (plus its own data) and that its distortion is the parameter
    sum over its directed tree.  Violations raise
    :class:`~gausstree.errors.ConsistencyError`.

    One body serves both modes: aggregation checks the uplinks (keyed by
    source node) and the one sink ``net.root``, whose weight is ignored;
    consensus checks every directed edge, and every node is a sink.
    """
    if mode not in ("aggregation", "consensus"):
        raise InputError(f"unknown mode {mode!r}")
    consensus = mode == "consensus"
    cascade = net.cascade
    if consensus:
        sigma_hat = bounds.consensus_test_channel_variances(net, d)
        nodes = sinks = net.node_ids
        links = edges = directed_edges(net)
    else:
        bounds._require_links(net)
        sigma_hat = bounds.test_channel_variances(net, d)
        nodes = links = net.sources
        sinks = (net.root,)
        edges = [DirectedEdge(i, net.parents[i]) for i in links]
    d = {link: float(d[link]) for link in links}
    laws = {link: test_channel_law(sigma_hat[link], d[link]) for link in links}
    if consensus:
        downstream, sink_ref = cascade.consensus_sums(d)
    else:
        downstream = cascade.upstream_sums(d)
        sink_ref = {net.root: fsum(d.values())}
    into: dict[int, list] = {k: [] for k in net.node_ids}  # (src, link), ascending by src
    for link, edge in zip(links, edges):
        into[edge.dst].append((edge.src, link))

    # Primitives: one unit-variance source per observing node, then one
    # test-channel noise per link.
    system = _LinearGaussian(
        [1.0] * len(nodes) + [laws[link].conditional_variance for link in links]
    )
    for k, i in enumerate(nodes):
        system.rows[("x", i)] = system.basis(k)
    w_index = {link: len(nodes) + k for k, link in enumerate(links)}

    def describe(link, src: int, fed: list) -> np.ndarray:
        # A link's estimate U is its source's weighted data plus the
        # descriptions fed in; its description is V = gain * U + noise.
        row = _sum_into(net.weights[src] * system.rows[("x", src)], fed)
        system.rows[("U", link)] = row
        system.rows[("V", link)] = laws[link].gain * row + system.basis(w_index[link])
        return system.rows[("V", link)]

    cascade.fold(describe, consensus)

    def partial_sum_row(members) -> np.ndarray:
        row = np.zeros(system.prim_var.size)
        for j in sorted(members):
            if ("x", j) in system.rows:  # an aggregation sink observes nothing
                row += net.weights[j] * system.rows[("x", j)]
        return row

    def info_at(node: int, excluding: int | None = None) -> list:
        # The descriptions into ``node`` (except the one from ``excluding``),
        # then the node's own data when it observes.
        keys: list = [("V", link) for src, link in into[node] if src != excluding]
        if ("x", node) in system.rows:
            keys.append(("x", node))
        return keys

    inc, tx, rx, receiver_gains, receiver_info = {}, {}, {}, {}, {}
    error_rows = []
    for link, edge in zip(links, edges):
        target = partial_sum_row(cascade.members(edge))
        _, est_tx, tx[link] = system.condition(target, info_at(edge.src, excluding=edge.dst))
        dst_info = info_at(edge.dst)
        gain, est_rx, rx[link] = system.condition(target, dst_info)
        receiver_gains[link] = gain
        receiver_info[link] = tuple(dst_info)
        diff = est_rx - est_tx
        inc[link] = system.variance(diff)
        error_rows.append(diff)

        name = f"{'edge' if consensus else 'link'} {link}"
        _relative_check(f"{name}: incremental distortion", inc[link], d[link], d[link])
        _relative_check(f"{name}: transmit distortion", tx[link], downstream[link], rx[link])
        _relative_check(f"{name}: receive distortion", rx[link], tx[link] + inc[link], rx[link])

    full_row = partial_sum_row(net.node_ids)
    per_root: dict[int, float] = {}
    for k in sinks:
        _, est, per_root[k] = system.condition(full_row, info_at(k))
        # The MMSE estimate must literally be what the coding scheme
        # outputs: the received descriptions plus the sink's own data.
        own = net.weights[k] * system.rows[("x", k)] if ("x", k) in system.rows else 0
        output = _sum_into(own, [system.rows[("V", link)] for _, link in into[k]])
        if system.variance(est - output) > _IDENTITY_TOL:
            where = f"node {k}: MMSE" if consensus else "sink"
            raise ConsistencyError(f"{where} estimate differs from the description sum")
        name = f"node {k}: consensus distortion" if consensus else "total distortion"
        _relative_check(name, per_root[k], sink_ref[k], sink_ref[k])

    error_stack = np.vstack(error_rows)
    keys = [("x", i) for i in nodes] + [(kind, link) for kind in "VU" for link in links]
    joint = system.covariance_matrix(keys)
    _check_psd(joint)
    return AnalyticModel(
        mode=mode,
        labels=tuple(f"{kind}{key}" for kind, key in keys),
        joint_covariance=joint,
        inc=inc,
        tx=tx,
        rx=rx,
        total=fsum(per_root[k] for k in nodes) if consensus else per_root[net.root],
        per_root=per_root if consensus else None,
        link_order=tuple(links),
        incremental_error_cov=error_stack @ (system.prim_var[:, None] * error_stack.T),
        receiver_gains=receiver_gains,
        receiver_info=receiver_info,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo simulation


@dataclass(frozen=True)
class SimulationResult:
    """Empirical distortions with 3-sigma confidence half-widths.

    ``empirical_total`` is a float in aggregation mode and a per-node map
    in consensus mode.  ``ci_halfwidth`` mirrors the structure of every
    reported mean; ``references`` carries the analytic values each mean
    is expected to match.
    """

    mode: str
    scheme: str
    empirical_total: float | dict[int, float]
    per_link_incremental: dict
    per_link_estimate_variance: dict
    ci_halfwidth: dict
    references: dict
    saturation_rate: dict | None = None

    def to_json_dict(self) -> dict:
        def keyed(mapping: Mapping) -> dict:
            return {str(k): v for k, v in sorted(mapping.items(), key=lambda kv: str(kv[0]))}

        out: dict[str, object] = {
            "mode": self.mode,
            "scheme": self.scheme,
            "per_link_incremental": keyed(self.per_link_incremental),
            "per_link_estimate_variance": keyed(self.per_link_estimate_variance),
            "ci_halfwidth": {
                name: keyed(v) if isinstance(v, dict) else v
                for name, v in sorted(self.ci_halfwidth.items())
            },
            "references": {
                name: keyed(v) if isinstance(v, dict) else v
                for name, v in sorted(self.references.items())
            },
        }
        if isinstance(self.empirical_total, dict):
            out["empirical_total"] = keyed(self.empirical_total)
        else:
            out["empirical_total"] = self.empirical_total
        if self.saturation_rate is not None:
            out["saturation_rate"] = keyed(self.saturation_rate)
        return out

    def to_csv_rows(self) -> list[list]:
        rows: list[list] = [["link_from", "link_to", "empirical_inc", "ci", "reference_inc"]]
        ci_inc = self.ci_halfwidth.get("inc", {})
        ref_inc = self.references.get("inc", {})
        for key in sorted(self.per_link_incremental, key=str):
            src, dst = (key.src, key.dst) if isinstance(key, DirectedEdge) else (key, "")
            rows.append(
                [src, dst, self.per_link_incremental[key], ci_inc.get(key, ""), ref_inc.get(key, "")]
            )
        if isinstance(self.empirical_total, dict):
            ci_nodes = self.ci_halfwidth.get("per_node", {})
            ref_nodes = self.references.get("per_node", {})
            for k in sorted(self.empirical_total):
                rows.append(
                    ["node", k, self.empirical_total[k], ci_nodes.get(k, ""), ref_nodes.get(k, "")]
                )
            rows.append(
                [
                    "total",
                    "",
                    fsum(self.empirical_total.values()),
                    "",
                    self.references.get("total", ""),
                ]
            )
        else:
            rows.append(
                [
                    "total",
                    "",
                    self.empirical_total,
                    self.ci_halfwidth.get("total", ""),
                    self.references.get("total", ""),
                ]
            )
        return rows


def _means_and_cis(samples: Mapping[object, np.ndarray]) -> tuple[dict, dict]:
    """Mean over the trials and its 3-sigma half-width, for every key."""
    means, cis = {}, {}
    for key, values in samples.items():
        means[key] = float(np.mean(values))
        cis[key] = 3.0 * (float(np.std(values, ddof=1)) / math.sqrt(values.size))
    return means, cis


def _monte_carlo(
    net: TreeNetwork,
    cfg: SimulationConfig,
    encode: Callable[[int, object, np.ndarray], np.ndarray],
    scheme: str,
    references: dict,
    consensus: bool = False,
) -> SimulationResult:
    """The one Monte-Carlo engine behind every ``simulate_*`` function.

    Each trial draws every observing node's data, then folds once over the
    links: a link's estimate is its source's weighted data plus the
    descriptions fed in, and ``encode(trial, link, estimate)`` returns its
    description.  Then each sink forms its estimate -- the aggregation root
    sums the descriptions it receives, every consensus node adds them to
    its own weighted data -- and its squared error against the target is
    recorded.  Per-link incremental distortions, estimate variances and
    the sink errors are averaged over trials with 3-sigma half-widths.
    """
    cascade = net.cascade
    nodes = net.node_ids if consensus else net.sources
    links = cascade.edges if consensus else net.sources
    sinks = nodes if consensus else (net.root,)
    weights, n_samples = net.weights, cfg.blocklength
    inc = {link: np.empty(cfg.trials) for link in links}
    var = {link: np.empty(cfg.trials) for link in links}
    sink_sq = {k: np.empty(cfg.trials) for k in sinks}
    for trial in range(cfg.trials):
        data = {
            i: _stream(cfg.seed, trial, _ROLE_SOURCE, i).standard_normal(n_samples)
            for i in nodes
        }

        def transmit(link, src: int, fed: list) -> np.ndarray:
            estimate = _sum_into(weights[src] * data[src], fed)
            description = encode(trial, link, estimate)
            inc[link][trial] = float(np.mean((estimate - description) ** 2))
            var[link][trial] = float(np.mean(estimate**2))
            return description

        descriptions = cascade.fold(transmit, consensus)
        target = sum(weights[i] * data[i] for i in nodes)
        for k in sinks:
            if consensus:
                estimate = _sum_into(
                    weights[k] * data[k], [descriptions[j, k] for j in net.neighbors[k]]
                )
            else:
                estimate = _sum_into(0, [descriptions[c] for c in net.children[k]])
            sink_sq[k][trial] = float(np.mean((target - estimate) ** 2))
        del descriptions  # free this trial's blocks before the next trial draws

    inc_mean, inc_ci = _means_and_cis(inc)
    var_mean, var_ci = _means_and_cis(var)
    total, total_ci = _means_and_cis(sink_sq)
    if not consensus:
        total, total_ci = total[net.root], total_ci[net.root]
    return SimulationResult(
        mode="consensus" if consensus else "aggregation",
        scheme=scheme,
        empirical_total=total,
        per_link_incremental=inc_mean,
        per_link_estimate_variance=var_mean,
        ci_halfwidth={
            "per_node" if consensus else "total": total_ci,
            "inc": inc_ci,
            "estimate_variance": var_ci,
        },
        references=references,
    )


def _test_channel(cfg: SimulationConfig, laws: Mapping, entity: Mapping):
    """Encoder drawing each description from the exact test-channel law
    given the estimate; ``entity[link]`` keys the link's noise stream."""

    def encode(trial: int, link, estimate: np.ndarray) -> np.ndarray:
        law = laws[link]
        noise = _stream(cfg.seed, trial, _ROLE_CHANNEL, entity[link]).standard_normal(
            cfg.blocklength
        ) * math.sqrt(law.conditional_variance)
        return law.gain * estimate + noise

    return encode


def simulate_aggregation(
    net: TreeNetwork, d: Mapping[int, float], cfg: SimulationConfig
) -> SimulationResult:
    """Monte-Carlo run of the test-channel aggregation scheme.

    Each non-root node forms its estimate as the sum of its children's
    descriptions plus its own weighted data, then draws its description
    from the exact conditional law; the sink sums the descriptions it
    receives.  Per-link incremental distortions, per-link estimate
    variances and the end-to-end distortion are averaged over trials.
    """
    sigma_hat = bounds.test_channel_variances(net, d)
    laws = {i: test_channel_law(sigma_hat[i], float(d[i])) for i in net.sources}
    references = {
        "total": fsum(float(d[i]) for i in net.sources),
        "inc": {i: float(d[i]) for i in net.sources},
        "estimate_variance": sigma_hat,
    }
    encode = _test_channel(cfg, laws, {i: i for i in net.sources})
    return _monte_carlo(net, cfg, encode, "test-channel", references)


def simulate_consensus(
    net: TreeNetwork, d: Mapping, cfg: SimulationConfig
) -> SimulationResult:
    """Monte-Carlo run of the test-channel consensus scheme.

    One description flows per directed edge; every node's final estimate
    sums the descriptions it received from all neighbours plus its own
    weighted data.  Per-node distortions are reported against the sums of
    the distortion parameters along each node's directed tree.
    """
    sigma_hat = bounds.consensus_test_channel_variances(net, d)
    edges = directed_edges(net)
    laws = {e: test_channel_law(sigma_hat[e], float(d[e])) for e in edges}
    _, per_root_ref = net.cascade.consensus_sums({e: float(d[e]) for e in edges})
    references = {
        "per_node": per_root_ref,
        "total": fsum(per_root_ref.values()),
        "inc": {e: float(d[e]) for e in edges},
        "estimate_variance": sigma_hat,
    }
    encode = _test_channel(cfg, laws, {e: k for k, e in enumerate(edges)})
    return _monte_carlo(net, cfg, encode, "test-channel", references, consensus=True)


def _dither_design(net: TreeNetwork, rates: Mapping[int, float]):
    """Design variances, steps and clip ranges of the quantizer chain.

    Quantization noise adds ``step^2/12`` per described link, so the
    design variance recursion grows (rather than shrinks) downstream.
    """
    variance: dict[int, float] = {}
    step: dict[int, float] = {}
    clip: dict[int, float] = {}

    def design(node: int, src: int, fed: list) -> float:
        rate = float(rates[node])
        if not (rate >= 0.0 and math.isfinite(rate)):
            raise InputError(f"link {node}: rate must be non-negative, got {rate!r}")
        variance[node] = fsum([net.weights[node] ** 2, *fed])
        clip[node] = _DITHER_CLIP_SIGMAS * math.sqrt(variance[node])
        step[node] = 2.0 * clip[node] / 2.0**rate if rate > 0.0 else 0.0
        # A rate-0 link sends nothing, so it feeds no variance downstream.
        return variance[node] + step[node] ** 2 / 12.0 if rate > 0.0 else 0.0

    net.cascade.fold(design)
    return variance, step, clip


def matched_test_channel_distortions(
    net: TreeNetwork, rates: Mapping[int, float]
) -> dict[int, float]:
    """Distortions the test-channel scheme achieves at the given rates:
    ``d_i = sigma_hat_i^2 * 4**(-R_i)`` along the variance recursion."""
    d: dict[int, float] = {}

    def describe(node: int, src: int, fed: list) -> float:
        sigma_hat = fsum([net.weights[node] ** 2, *fed])
        d[node] = sigma_hat * 4.0 ** (-float(rates[node]))
        return sigma_hat - d[node]

    net.cascade.fold(describe)
    return d


def simulate_dithered_baseline(
    net: TreeNetwork, rates: RateAllocation, cfg: SimulationConfig
) -> SimulationResult:
    """Subtractive-dither uniform-quantizer baseline at the given rates.

    Each link quantizes its estimate entry-wise with step
    ``2 * 4 * sigma / 2**R`` (clipping at 4 design standard deviations,
    saturation counted), using a per-link uniform dither known to both
    ends.  Rate-0 links send nothing.  The contract is property-based:
    distortion is non-increasing in rate and dominated from below by the
    test channel at matched rates.
    """
    if not isinstance(rates.profile, DistortionProfile):
        raise InputError("the dithered baseline runs on aggregation allocations")
    rate_map = {i: float(rates.per_link_rate_bits[i]) for i in net.sources}
    variance, step, clip = _dither_design(net, rate_map)
    n_samples = cfg.blocklength
    saturated = {i: np.empty(cfg.trials) for i in net.sources}

    def quantize(trial: int, node: int, estimate: np.ndarray) -> np.ndarray:
        if rate_map[node] > 0.0:
            dither = _stream(cfg.seed, trial, _ROLE_DITHER, node).uniform(
                -0.5 * step[node], 0.5 * step[node], n_samples
            )
            shifted = estimate + dither
            saturated[node][trial] = float(np.mean(np.abs(shifted) > clip[node]))
            clipped = np.clip(shifted, -clip[node], clip[node])
            return step[node] * np.round(clipped / step[node]) - dither
        saturated[node][trial] = 0.0
        return np.zeros(n_samples)

    nominal = {
        i: step[i] ** 2 / 12.0 if rate_map[i] > 0.0 else variance[i]
        for i in net.sources
    }
    references = {
        "total": fsum(nominal[i] for i in net.sources),
        "inc": nominal,
        "estimate_variance": variance,
    }
    result = _monte_carlo(net, cfg, quantize, "dithered-quantizer", references)
    return replace(
        result, saturation_rate={i: float(np.mean(saturated[i])) for i in net.sources}
    )
