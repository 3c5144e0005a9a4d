"""Temporal-multiplexing rate and fidelity model of the memory-assisted
breeding protocol: closed-form generation rate, storage-loss evolution,
a seeded discrete-event Monte Carlo of the herald/store/breed timeline,
and the rate-versus-fidelity trade-off curve.

Pulse slots double as cavity round trips: the pump repetition period
equals one round trip, so a herald gap of n pulses means the first
photon waited n trips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError
from .fock import (
    DensityOperator,
    FockCutoff,
    StateVector,
    TargetCatSpec,
    fidelity_to_pure,
    target_cat,
)
from .optics import AcceptanceWindow, breed, loss_channel, single_photon_state

EVENT_KINDS = frozenset({
    "herald", "trap", "hold", "breed", "condition_pass", "condition_fail",
    "readout", "phase_trigger", "dead_time",
})


def per_trip_transmission_from_total(total_loss: float, n_trips: int) -> float:
    """Per-round-trip transmission from an aggregate loss figure.

    Args:
        total_loss: total fractional loss over n_trips, in [0, 1).
        n_trips: number of round trips the figure covers, >= 1.

    Returns:
        (1 - total_loss)^(1/n_trips).
    """
    if not 0.0 <= total_loss < 1.0:
        raise DomainError(f"total loss must lie in [0, 1), got {total_loss}")
    if n_trips < 1:
        raise DomainError(f"n_trips must be >= 1, got {n_trips}")
    return float((1.0 - total_loss) ** (1.0 / n_trips))


DEFAULT_PER_TRIP_TRANSMISSION = per_trip_transmission_from_total(0.159, 15)


@dataclass(frozen=True)
class ProtocolConfig:
    """Operating point of the protocol; defaults reproduce the headline
    experiment (76 MHz pulses, 310 kHz heralds, window 0.3, storage
    window 1..15 trips, 15 readout trips, 76% homodyne efficiency,
    photon fidelity 0.87)."""

    f_rep: float = 76e6
    f_herald: float = 310e3
    beta_elec: float = 1.0
    window: AcceptanceWindow = AcceptanceWindow(0.3, 0.0)
    n_min: int = 1
    n_max: int = 15
    per_trip_transmission: float = DEFAULT_PER_TRIP_TRANSMISSION
    readout_trips: int = 15
    eta_homodyne: float = 0.76
    photon_fidelity: float = 0.87
    two_photon_weight: float = 0.0
    condition_with_detector_efficiency: bool = False
    cutoff: FockCutoff = FockCutoff(20)
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_min < 1 or self.n_min > self.n_max:
            raise DomainError(f"need 1 <= n_min <= n_max, got [{self.n_min}, {self.n_max}]")
        if not 0.0 <= self.f_herald < self.f_rep:
            raise DomainError("heralding rate must satisfy 0 <= f_herald < f_rep")
        if not 0.0 <= self.beta_elec <= 1.0:
            raise DomainError(f"beta_elec must lie in [0, 1], got {self.beta_elec}")
        if not 0.0 < self.per_trip_transmission <= 1.0:
            raise DomainError("per-trip transmission must lie in (0, 1]")
        if not 0.0 < self.eta_homodyne <= 1.0:
            raise DomainError("homodyne efficiency must lie in (0, 1]")
        if self.readout_trips < 0:
            raise DomainError("readout_trips must be >= 0")

    @property
    def p_trip(self) -> float:
        """Per-pulse herald probability."""
        return self.f_herald / self.f_rep

    @property
    def conditioning_efficiency(self) -> float:
        return self.eta_homodyne if self.condition_with_detector_efficiency else 1.0


@dataclass(frozen=True)
class TimelineEvent:
    kind: str
    pulse_index: int
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise DomainError(f"unknown event kind {self.kind!r}")


@dataclass(frozen=True)
class RunStatistics:
    attempts: int
    successes: int
    duration_s: float
    estimated_rate_hz: float
    mean_first_photon_storage: float
    storage_histogram: dict
    mean_output_fidelity: float


def storage_evolve(rho: DensityOperator, n_trips: int,
                   per_trip_transmission: float) -> DensityOperator:
    """Loss accumulated over ``n_trips`` cavity round trips."""
    if n_trips < 0:
        raise DomainError(f"n_trips must be >= 0, got {n_trips}")
    if n_trips == 0:
        return rho
    return loss_channel(rho, per_trip_transmission ** n_trips)


def window_probability(p_trip: float, n_min: int, n_max: int) -> float:
    """Probability that a geometric herald gap lands in [n_min, n_max].

    With independent per-pulse heralds of probability p, the gap to the
    next herald is geometric and
    P = (1-p)^(n_min-1) * (1 - (1-p)^(n_max-n_min+1)).
    """
    if not 0.0 < p_trip < 1.0:
        raise DomainError(f"p_trip must lie in (0, 1), got {p_trip}")
    if n_min < 1 or n_min > n_max:
        raise DomainError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    log_q = np.log1p(-p_trip)
    head = np.exp((n_min - 1) * log_q)
    tail = -np.expm1((n_max - n_min + 1) * log_q)
    return float(head * tail)


def generation_rate(config: ProtocolConfig, p_condition: float) -> float:
    """Closed-form cat generation rate in Hz.

    rate = f_herald / 3 * beta_elec * p_condition * window_probability.
    The /3 accounts for the third herald consumed as the phase trigger
    of every sequence.
    """
    if not 0.0 <= p_condition <= 1.0:
        raise DomainError(f"p_condition must lie in [0, 1], got {p_condition}")
    if config.f_herald == 0.0:
        return 0.0
    p_window = window_probability(config.p_trip, config.n_min, config.n_max)
    return config.f_herald / 3.0 * config.beta_elec * p_condition * p_window


def calibrate_beta_elec(config: ProtocolConfig, target_rate_hz: float,
                        p_condition: float) -> float:
    """Dead-time factor reproducing an observed rate at this operating point.

    The rate is linear in beta_elec, so the calibration is a single
    division against the beta = 1 rate.
    """
    if target_rate_hz <= 0:
        raise DomainError("target rate must be > 0")
    base = generation_rate(replace(config, beta_elec=1.0), p_condition)
    if base <= 0:
        raise DomainError("configured rate is zero; cannot calibrate beta_elec")
    beta = target_rate_hz / base
    if not 0.0 < beta <= 1.0:
        raise DomainError(
            f"calibrated beta_elec {beta:.4f} outside (0, 1]; "
            f"target {target_rate_hz} Hz is not reachable by a dead-time factor")
    return float(beta)


@lru_cache(maxsize=2)
def _window_components(config: ProtocolConfig):
    """Per-gap breeding outcomes for every storage length in the window.

    Returns a tuple of (n, heralded DensityOperator, herald probability)
    with the first photon degraded by n round trips and the second
    photon fresh.
    """
    fresh = single_photon_state(config.photon_fidelity, config.two_photon_weight,
                                config.cutoff)
    eta_cond = config.conditioning_efficiency
    out = []
    for n in range(config.n_min, config.n_max + 1):
        first = storage_evolve(fresh, n, config.per_trip_transmission)
        outcome = breed(first, fresh, config.window, eta_cond)
        out.append((n, outcome.state, outcome.probability))
    return tuple(out)


def _gap_weights(config: ProtocolConfig, n_max: int) -> np.ndarray:
    """Geometric gap probabilities restricted to [n_min, n_max], normalized."""
    n = np.arange(config.n_min, n_max + 1)
    p = config.p_trip
    if p == 0.0:
        raise DomainError(
            "f_herald is 0: no photon is ever heralded, so the heralded "
            "mixture over storage lengths is undefined")
    w = (1.0 - p) ** (n - 1) * p
    return w / w.sum()


def _heralded_mixture(config: ProtocolConfig,
                      n_max: int) -> tuple[DensityOperator, float]:
    """Creation state and mean herald probability for storage depth
    ``n_max`` <= config.n_max: the per-gap outcomes mixed by the in-window
    gap law."""
    weights = _gap_weights(config, n_max)
    comps = _window_components(config)[:n_max - config.n_min + 1]
    creation_mat = np.zeros((config.cutoff.dimension,) * 2, dtype=complex)
    p_mean = 0.0
    for w, (_, state, prob) in zip(weights, comps):
        creation_mat += w * state.matrix
        p_mean += w * prob
    return DensityOperator(creation_mat, config.cutoff), p_mean


@dataclass(frozen=True, eq=False)
class PipelineStates:
    """The operating-point state at its three observable stages."""

    creation: DensityOperator      # heralded mixture, before readout storage
    stored: DensityOperator        # after the readout storage trips
    measured: DensityOperator      # as seen by the lossy homodyne detector
    mean_condition_probability: float


def pipeline_states(config: ProtocolConfig) -> PipelineStates:
    """Simulate the full protocol at one operating point.

    The creation state is the statistical mixture over first-photon
    storage lengths weighted by the in-window geometric gap law; the
    stored state adds the readout storage loss; the measured state adds
    the homodyne detection loss.
    """
    creation, p_mean = _heralded_mixture(config, config.n_max)
    stored = storage_evolve(creation, config.readout_trips,
                            config.per_trip_transmission)
    measured = loss_channel(stored, config.eta_homodyne)
    return PipelineStates(creation, stored, measured, p_mean)


@dataclass(frozen=True)
class CurveRow:
    n_max: int
    rate_hz: float
    fidelity_at_creation: float
    fidelity_after_readout: float


def fidelity_vs_storage_curve(config: ProtocolConfig,
                              n_max_values: Sequence[int],
                              target: StateVector | None = None) -> list[CurveRow]:
    """Rate/fidelity trade-off versus the maximum storage window length.

    For each candidate n_max the heralded mixture is reassembled from
    cached per-gap components, so sweeping is cheap. Fidelities are
    reported at creation and after the readout storage trips.
    """
    if len(n_max_values) == 0:
        raise DomainError("n_max_values must be non-empty")
    if any(m < config.n_min for m in n_max_values):
        raise DomainError("every n_max must be >= config.n_min")
    top = max(n_max_values)
    wide = replace(config, n_max=top)
    if target is None:
        target = target_cat(TargetCatSpec(), config.cutoff)

    rows = []
    for m in n_max_values:
        creation, p_mean = _heralded_mixture(wide, m)
        after = storage_evolve(creation, config.readout_trips,
                               config.per_trip_transmission)
        rate = generation_rate(replace(config, n_max=m), p_mean)
        rows.append(CurveRow(
            n_max=m,
            rate_hz=rate,
            fidelity_at_creation=fidelity_to_pure(creation, target),
            fidelity_after_readout=fidelity_to_pure(after, target),
        ))
    return rows


CURVE_CSV_HEADER = "n_max,rate_hz,fidelity_at_creation,fidelity_after_readout"


def write_curve_csv(rows: Sequence[CurveRow], path) -> None:
    lines = [CURVE_CSV_HEADER]
    for r in rows:
        lines.append(f"{r.n_max},{r.rate_hz:.10g},"
                     f"{r.fidelity_at_creation:.10g},{r.fidelity_after_readout:.10g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_event_log(events: Sequence[TimelineEvent], path) -> None:
    """Line-delimited structured records, one JSON object per event."""
    # json.dumps builds a fresh encoder on every call; one per log is
    # enough and writes the same bytes
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w") as fh:
        for ev in events:
            fh.write(encode(
                {"kind": ev.kind, "pulse_index": ev.pulse_index, **ev.payload}) + "\n")


def _herald_pulses(rng: np.random.Generator, p: float, n_pulses: int) -> np.ndarray:
    """Pulse indices of heralds in [0, n_pulses), via geometric gaps.

    Gaps are drawn in fixed-size chunks in a fixed order so the stream
    is reproducible for a given seed regardless of duration.
    """
    if p <= 0.0:
        return np.zeros(0, dtype=np.int64)
    chunk = max(1024, int(n_pulses * p * 1.5))
    positions = []
    last = -1
    while last < n_pulses:
        gaps = rng.geometric(p, size=chunk)
        pulses = last + np.cumsum(gaps)
        positions.append(pulses)
        last = int(pulses[-1])
    all_pulses = np.concatenate(positions)
    return all_pulses[all_pulses < n_pulses]


def simulate_timeline(config: ProtocolConfig,
                      duration_s: float) -> tuple[RunStatistics, list[TimelineEvent]]:
    """Discrete-event Monte Carlo of the heralded breeding timeline.

    The protocol runs in strict three-herald sequences: the first herald
    traps a photon (if the electronics are live, probability beta_elec),
    the second must arrive within the storage window to trigger the
    breeding measurement, and the third is consumed as the phase
    trigger. Every sequence consumes its three heralds whatever the
    outcome, which is what makes the long-run success rate converge to
    the closed-form generation_rate.

    Args:
        config: operating point, including the RNG seed.
        duration_s: simulated wall time, > 0.

    Returns:
        (RunStatistics, ordered event list). Event pulse indices are
        non-decreasing; simultaneous physical events (a herald and the
        trap it causes) share a pulse index and keep emission order.
    """
    if duration_s <= 0:
        raise DomainError(f"duration must be > 0, got {duration_s}")
    rng = np.random.default_rng(config.rng_seed)
    n_pulses = int(round(duration_s * config.f_rep))
    heralds = _herald_pulses(rng, config.p_trip, n_pulses)

    n_cycles = len(heralds) // 3
    events: list[TimelineEvent] = [
        TimelineEvent("herald", int(h)) for h in heralds
    ]

    if n_cycles > 0:
        u_live = rng.random(n_cycles)
        u_cond = rng.random(n_cycles)
    else:
        u_live = u_cond = np.zeros(0)

    comps = _window_components(config)
    p_cond = {n: prob for n, _, prob in comps}
    target = target_cat(TargetCatSpec(), config.cutoff)
    fid_out = {
        n: fidelity_to_pure(
            storage_evolve(state, config.readout_trips, config.per_trip_transmission),
            target)
        for n, state, _ in comps
    }

    successes = 0
    storage_hist: dict[int, int] = {}
    fid_sum = 0.0
    for c in range(n_cycles):
        h1, h2, h3 = (int(heralds[3 * c + i]) for i in range(3))
        gap = h2 - h1
        if u_live[c] >= config.beta_elec:
            events.append(TimelineEvent("dead_time", h1))
            events.append(TimelineEvent("phase_trigger", h3))
            continue
        events.append(TimelineEvent("trap", h1))
        events.append(TimelineEvent("hold", h1, {"trips": gap}))
        if not config.n_min <= gap <= config.n_max:
            reason = ("storage_window_expired" if gap > config.n_max
                      else "storage_window_not_reached")
            events.append(TimelineEvent(
                "condition_fail", h2, {"reason": reason, "trips": gap}))
            events.append(TimelineEvent("phase_trigger", h3))
            continue
        events.append(TimelineEvent("breed", h2, {"trips": gap}))
        if u_cond[c] < p_cond[gap]:
            events.append(TimelineEvent("condition_pass", h2))
            events.append(TimelineEvent("readout", h2 + config.readout_trips))
            successes += 1
            storage_hist[gap] = storage_hist.get(gap, 0) + 1
            fid_sum += fid_out[gap]
        else:
            events.append(TimelineEvent(
                "condition_fail", h2, {"reason": "quadrature_outside_window"}))
        events.append(TimelineEvent("phase_trigger", h3))

    events.sort(key=lambda ev: ev.pulse_index)
    mean_storage = (
        sum(n * c for n, c in storage_hist.items()) / successes
        if successes else float("nan"))
    stats = RunStatistics(
        attempts=n_cycles,
        successes=successes,
        duration_s=duration_s,
        estimated_rate_hz=successes / duration_s,
        mean_first_photon_storage=mean_storage,
        storage_histogram=dict(sorted(storage_hist.items())),
        mean_output_fidelity=(fid_sum / successes if successes else float("nan")),
    )
    return stats, events
