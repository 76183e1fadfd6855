"""Numerical validation of the distortion-accumulation theory.

Two layers:

* an exact analytic oracle (:func:`analytic_mmse_check`) that expresses
  the whole test-channel cascade as scalar variables that are linear in a
  set of independent Gaussian primitives, evaluates every MMSE distortion
  by linear conditioning (Schur complements) on the induced joint
  covariance, and asserts the accumulation identities to 1e-10 relative;

* a Monte-Carlo simulator that reproduces the achieved distortions
  empirically with 3-sigma confidence intervals.

Both layers walk one mode's links, a
:class:`~gausstree.network.LinkSet`, with its fold: the oracle builds each
link's estimate and description as linear rows, and the Monte-Carlo
engine draws them.  Each layer has one body for both modes (aggregation
is consensus restricted to the directed tree towards the root): the view
gives the observing nodes, the links, the links into every sink and the
reference sums, and only the shape of the result differs by mode.  A
scheme is an encoder that turns a link's estimate into its description.
Two encoders exist: the test channel (aggregation and consensus), where
joint-typicality encoding is replaced by exact sampling from the
test-channel conditional law of the description given the estimate -- at
infinite blocklength the two coincide, and the conditional law preserves
every distortion identity checked here -- and a subtractive-dither
uniform scalar quantizer (an aggregation baseline).

Randomness is counter-based: each (seed, trial, role, entity) tuple keys
an independent Philox stream, so per-node streams are reproducible and
insensitive to evaluation order.  The Monte-Carlo engine folds once per
chunk of consecutive trials over ``(chunk, blocklength)`` blocks, the
chunk bounded by a fixed memory budget (``_CHUNK_FLOATS``).  Row ``r`` of
every block is drawn from trial ``r``'s own stream by one Philox
generator per run, re-positioned at the start of each stream, and each
row is reduced on its own; so the output is the same for every chunk
size, and the same as drawing one trial at a time.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, field, replace
from math import fsum
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.random import Generator, Philox

from . import bounds
from .allocation import RateAllocation
from .bounds import DistortionProfile
from .errors import ConsistencyError, InputError
from .infomeasures import test_channel_law
from .network import DirectedEdge, LinkSet, TreeNetwork

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

#: Live floats one Monte-Carlo chunk of trials may hold (4 MiB): the
#: observing nodes' data and the links' descriptions, ``blocklength``
#: samples each per trial.
_CHUNK_FLOATS = 1 << 19

#: How the oracle's diagnostics name a link, and a sink ``k``'s estimate
#: and distortion.
_ORACLE_NAMES = {
    "aggregation": ("link {}", "sink", "total distortion"),
    "consensus": ("edge {}", "node {}: MMSE", "node {}: consensus distortion"),
}

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


def _stream(rng: Generator, seed: int, trial: int, role: int, index: int) -> Generator:
    # One Philox stream per (seed, trial, role, entity); streams can never
    # collide because they start in distinct 2^64-sized counter blocks.
    # ``rng`` is re-positioned at the stream's start with an empty buffer,
    # the state of a fresh ``Philox(counter=[0, role, index, trial],
    # key=[seed, 0])``, so it draws exactly what that generator would.
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, role, index, trial), "key": (seed, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _normal_block(
    rng: Generator, seed: int, trials: range, role: int, index: int, n_samples: int
) -> np.ndarray:
    """Standard normals, one row per trial, row ``r`` from trial
    ``trials[r]``'s stream."""
    block = np.empty((len(trials), n_samples))
    for row, trial in zip(block, trials):
        _stream(rng, seed, trial, role, index).standard_normal(out=row)
    return block


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
    if mode == "consensus":
        view = bounds._consensus_view(net)
    elif mode == "aggregation":
        bounds._require_links(net)
        view = net.links()
    else:
        raise InputError(f"unknown mode {mode!r}")
    d = view.read(d, "distortion parameters")
    sigma_hat = bounds._test_channel_variances(view, d)
    nodes, links, src, dst, into = view.observers, view.keys, view.src, view.dst, view.into
    link_name, sink_name, sink_distortion = _ORACLE_NAMES[mode]
    laws = [test_channel_law(s2, dk) for s2, dk in zip(sigma_hat, d)]
    downstream, sink_ref, _ = view.sums(d)

    # Primitives: one unit-variance source per observing node, then one
    # test-channel noise per link.
    system = _LinearGaussian([1.0] * len(nodes) + [law.conditional_variance for law in laws])
    for k, i in enumerate(nodes):
        system.rows[("x", i)] = system.basis(k)

    def describe(k: int, source: int, fed: list) -> np.ndarray:
        # A link's estimate U is its source's weighted data plus the
        # descriptions fed in; its description is V = gain * U + noise.
        row = _sum_into(net.weights[source] * system.rows[("x", source)], fed)
        system.rows[("U", links[k])] = row
        system.rows[("V", links[k])] = laws[k].gain * row + system.basis(len(nodes) + k)
        return system.rows[("V", links[k])]

    view.fold(describe)

    def partial_sum_row(members) -> np.ndarray:
        row = np.zeros(system.prim_var.size)
        for j in sorted(members):
            if ("x", j) in system.rows:  # an aggregation sink observes nothing
                row += net.weights[j] * system.rows[("x", j)]
        return row

    def info_at(node: int, excluding: int | None = None) -> list:
        # The descriptions into ``node`` (except the one from ``excluding``),
        # then the node's own data when it observes.
        keys: list = [("V", links[j]) for j in into[node] if src[j] != excluding]
        if ("x", node) in system.rows:
            keys.append(("x", node))
        return keys

    inc, tx, rx, receiver_gains, receiver_info = {}, {}, {}, {}, {}
    error_rows = []
    for k, link in enumerate(links):
        target = partial_sum_row(view.cascade.members((src[k], dst[k])))
        _, est_tx, tx[link] = system.condition(target, info_at(src[k], excluding=dst[k]))
        dst_info = info_at(dst[k])
        gain, est_rx, rx[link] = system.condition(target, dst_info)
        receiver_gains[link] = gain
        receiver_info[link] = tuple(dst_info)
        diff = est_rx - est_tx
        inc[link] = system.variance(diff)
        error_rows.append(diff)

        name = link_name.format(link)
        _relative_check(f"{name}: incremental distortion", inc[link], d[k], d[k])
        _relative_check(f"{name}: transmit distortion", tx[link], downstream[k], rx[link])
        _relative_check(f"{name}: receive distortion", rx[link], tx[link] + inc[link], rx[link])

    full_row = partial_sum_row(net.node_ids)
    per_root: dict[int, float] = {}
    for k, ref in zip(view.sinks, sink_ref):
        _, est, per_root[k] = system.condition(full_row, info_at(k))
        # The MMSE estimate must literally be what the coding scheme
        # outputs: the received descriptions plus the sink's own data.
        own = net.weights[k] * system.rows[("x", k)] if ("x", k) in system.rows else 0
        output = _sum_into(own, [system.rows[("V", links[j])] for j in into[k]])
        if system.variance(est - output) > _IDENTITY_TOL:
            where = sink_name.format(k)
            raise ConsistencyError(f"{where} estimate differs from the description sum")
        name = sink_distortion.format(k)
        _relative_check(name, per_root[k], ref, ref)

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
        total=fsum(per_root.values()),
        per_root=per_root if mode == "consensus" else None,
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
            total, ci_total = fsum(self.empirical_total.values()), ""
        else:
            total, ci_total = self.empirical_total, self.ci_halfwidth.get("total", "")
        rows.append(["total", "", total, ci_total, self.references.get("total", "")])
        return rows


def _row_means(block: np.ndarray) -> np.ndarray:
    # What ``np.mean(block, axis=1)`` returns, bit for bit (a float64 sum
    # over each row, divided by the row length), without its dispatch.
    return np.add.reduce(block, axis=1, dtype=np.float64) / block.shape[1]


def _means_and_cis(samples: list[np.ndarray]) -> tuple[list, list]:
    """Mean over the trials and its 3-sigma half-width, for every entry."""
    means = [float(np.mean(values)) for values in samples]
    cis = [3.0 * (float(np.std(values, ddof=1)) / math.sqrt(values.size)) for values in samples]
    return means, cis


def _monte_carlo(
    net: TreeNetwork,
    view: LinkSet,
    cfg: SimulationConfig,
    encode: Callable[[Generator, range, int, np.ndarray], np.ndarray],
    scheme: str,
    references: dict,
) -> SimulationResult:
    """The one Monte-Carlo engine behind every ``simulate_*`` function.

    The trials run in chunks of consecutive trials, sized so that every
    observing node's data and every link's description, ``(chunk,
    blocklength)`` blocks, fit in ``_CHUNK_FLOATS`` floats.  Each chunk
    draws every observing node's data, then folds once over the links: a
    link's estimate is its source's weighted data plus the descriptions
    fed in, and ``encode(rng, trials, k, estimate)`` returns link ``k``'s
    description.  Then each sink adds the descriptions it receives to its
    own weighted data (an aggregation root has none) and its squared error
    against the target is recorded.  Per-link incremental distortions, estimate variances and
    the sink errors are averaged over trials with 3-sigma half-widths.
    Row ``r`` of every block is trial ``trials[r]``, drawn from that
    trial's own streams through ``rng`` (see :func:`_stream`) and reduced
    on its own, so the output does not depend on the chunk size.
    """
    nodes, sinks, into = view.observers, view.sinks, view.into
    weights, n_samples, n_links = net.weights, cfg.blocklength, len(view.keys)
    rng = Generator(Philox(key=np.array([cfg.seed, 0], dtype=np.uint64)))
    chunk = max(1, _CHUNK_FLOATS // (n_samples * max(1, len(nodes) + n_links)))
    inc = [np.empty(cfg.trials) for _ in range(n_links)]
    var = [np.empty(cfg.trials) for _ in range(n_links)]
    sink_sq = [np.empty(cfg.trials) for _ in sinks]
    for start in range(0, cfg.trials, chunk):
        trials = range(start, min(start + chunk, cfg.trials))
        rows = slice(trials.start, trials.stop)
        data = {i: _normal_block(rng, cfg.seed, trials, _ROLE_SOURCE, i, n_samples) for i in nodes}

        def transmit(k: int, src: int, fed: list) -> np.ndarray:
            estimate = _sum_into(weights[src] * data[src], fed)
            description = encode(rng, trials, k, estimate)
            inc[k][rows] = _row_means((estimate - description) ** 2)
            var[k][rows] = _row_means(estimate**2)
            return description

        descriptions = view.fold(transmit)
        target = sum((weights[i] * data[i] for i in nodes), np.zeros((len(trials), n_samples)))
        for sq, k in zip(sink_sq, sinks):
            own = weights[k] * data[k] if k in data else 0
            estimate = _sum_into(own, [descriptions[j] for j in into[k]])
            sq[rows] = _row_means((target - estimate) ** 2)
        del data, descriptions  # free this chunk's blocks before the next chunk draws

    inc_mean, inc_ci = _means_and_cis(inc)
    var_mean, var_ci = _means_and_cis(var)
    total, total_ci = _means_and_cis(sink_sq)
    if view.mode == "aggregation":  # the one sink's total, as a scalar
        total, total_ci, total_key = total[0], total_ci[0], "total"
    else:
        total, total_ci, total_key = dict(zip(sinks, total)), dict(zip(sinks, total_ci)), "per_node"
    return SimulationResult(
        mode=view.mode,
        scheme=scheme,
        empirical_total=total,
        per_link_incremental=view.keyed(inc_mean),
        per_link_estimate_variance=view.keyed(var_mean),
        ci_halfwidth={
            total_key: total_ci,
            "inc": view.keyed(inc_ci),
            "estimate_variance": view.keyed(var_ci),
        },
        references=references,
    )


def _test_channel(cfg: SimulationConfig, laws: list, entity: Sequence[int]):
    """Encoder drawing each description from the exact test-channel law
    given the estimate; ``entity[k]`` keys link ``k``'s noise stream."""

    def encode(rng: Generator, trials: range, k: int, estimate: np.ndarray) -> np.ndarray:
        law = laws[k]
        noise = _normal_block(
            rng, cfg.seed, trials, _ROLE_CHANNEL, entity[k], cfg.blocklength
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
    view = net.links()
    return _simulate_test_channel(net, view, view.read(d, "distortion parameters"), cfg)


def simulate_consensus(
    net: TreeNetwork, d: Mapping, cfg: SimulationConfig
) -> SimulationResult:
    """Monte-Carlo run of the test-channel consensus scheme.

    One description flows per directed edge; every node's final estimate
    sums the descriptions it received from all neighbours plus its own
    weighted data.  Per-node distortions are reported against the sums of
    the distortion parameters along each node's directed tree.
    """
    view = bounds._consensus_view(net)
    return _simulate_test_channel(net, view, view.read(d, "distortion parameters"), cfg)


def _simulate_test_channel(
    net: TreeNetwork, view: LinkSet, d: list, cfg: SimulationConfig
) -> SimulationResult:
    # simulate_aggregation or simulate_consensus for checked distortion
    # parameters.  A link's noise stream is keyed by its source node in
    # aggregation and by its rank among the directed edges in consensus.
    sigma_hat = bounds._test_channel_variances(view, d)
    laws = [test_channel_law(s2, dk) for s2, dk in zip(sigma_hat, d)]
    _, per_root, total = view.sums(d)
    references = {"total": total, "inc": view.keyed(d), "estimate_variance": view.keyed(sigma_hat)}
    entity = view.src
    if view.mode == "consensus":
        references["per_node"] = dict(zip(view.sinks, per_root))
        entity = range(len(d))
    encode = _test_channel(cfg, laws, entity)
    return _monte_carlo(net, view, cfg, encode, "test-channel", references)


def _check_rate(view: LinkSet, k: int, rate: float) -> float:
    # Link k's rate, once it is non-negative and finite.
    if not (rate >= 0.0 and math.isfinite(rate)):
        raise InputError(f"link {view.keys[k]}: rate must be non-negative, got {rate!r}")
    return rate


def _dither_design(view: LinkSet, rates: list):
    """Design variances, steps and clip ranges of the quantizer chain.

    Quantization noise adds ``step^2/12`` per described link, so the
    design variance recursion grows (rather than shrinks) downstream.
    """
    step, clip = [0.0] * len(rates), [0.0] * len(rates)

    def design(k: int, variance: float) -> float:
        _check_rate(view, k, rates[k])
        clip[k] = _DITHER_CLIP_SIGMAS * math.sqrt(variance)
        step[k] = 2.0 * clip[k] / 2.0 ** rates[k] if rates[k] > 0.0 else 0.0
        # A rate-0 link sends nothing, so it feeds no variance downstream.
        return variance + step[k] ** 2 / 12.0 if rates[k] > 0.0 else 0.0

    return view.variances(design), step, clip


def matched_test_channel_distortions(
    net: TreeNetwork, rates: Mapping[int, float]
) -> dict[int, float]:
    """Distortions the test-channel scheme achieves at the given rates:
    ``d_i = sigma_hat_i^2 * 4**(-R_i)`` along the variance recursion.
    Refuses, as :class:`~gausstree.errors.InputError`, a link without a
    rate and a rate that is not non-negative and finite."""
    view = net.links()
    for key in view.keys:
        if key not in rates:
            raise InputError(f"link {key}: no rate given")
    rate = [_check_rate(view, k, float(rates[key])) for k, key in enumerate(view.keys)]
    d = [0.0] * len(view.keys)

    def describe(k: int, sigma_hat: float) -> float:
        d[k] = sigma_hat * 4.0 ** -rate[k]
        return sigma_hat - d[k]

    view.variances(describe)
    return view.keyed(d)


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
    view = net.links()
    rate = [float(r) for r in view.listed(rates.per_link_rate_bits)]
    variance, step, clip = _dither_design(view, rate)
    n_samples = cfg.blocklength
    saturated = [np.empty(cfg.trials) for _ in rate]

    def quantize(rng: Generator, trials: range, k: int, estimate: np.ndarray) -> np.ndarray:
        rows = slice(trials.start, trials.stop)
        if rate[k] > 0.0:
            dither = np.empty_like(estimate)
            for row, trial in zip(dither, trials):
                row[:] = _stream(rng, cfg.seed, trial, _ROLE_DITHER, view.src[k]).uniform(
                    -0.5 * step[k], 0.5 * step[k], n_samples
                )
            shifted = estimate + dither
            saturated[k][rows] = _row_means(np.abs(shifted) > clip[k])
            clipped = np.clip(shifted, -clip[k], clip[k])
            return step[k] * np.round(clipped / step[k]) - dither
        saturated[k][rows] = 0.0
        return np.zeros(estimate.shape)

    nominal = [s**2 / 12.0 if r > 0.0 else v for s, r, v in zip(step, rate, variance)]
    references = {
        "total": fsum(nominal),
        "inc": view.keyed(nominal),
        "estimate_variance": view.keyed(variance),
    }
    result = _monte_carlo(net, view, cfg, quantize, "dithered-quantizer", references)
    return replace(result, saturation_rate=view.keyed([float(np.mean(s)) for s in saturated]))
