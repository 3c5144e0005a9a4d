"""Temporal-multiplexing rate and fidelity model of the memory-assisted
breeding protocol: closed-form generation rate, storage-loss evolution,
a seeded discrete-event Monte Carlo of the herald/store/breed timeline,
and the rate-versus-fidelity trade-off curve.

Pulse slots double as cavity round trips: the pump repetition period
equals one round trip, so a herald gap of n pulses means the first
photon waited n trips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError
from .fock import (
    DensityOperator,
    FockCutoff,
    StateVector,
    TargetCatSpec,
    target_cat,
)
from .optics import (AcceptanceWindow, _breed, _lose, _lose_populations, loss_channel,
                     single_photon_state)
from .tomography import _ROWS_PER_WRITE, _write_csv

# Every record the timeline writes, as (kind, reason, carries the storage
# trips). A record's code in TimelineEvents is its row here.
EVENT_RECORDS = (
    ("herald", None, False),
    ("dead_time", None, False),
    ("trap", None, False),
    ("hold", None, True),
    ("breed", None, True),
    ("condition_fail", "storage_window_not_reached", True),
    ("condition_fail", "storage_window_expired", True),
    ("condition_pass", None, False),
    ("condition_fail", "quadrature_outside_window", False),
    ("readout", None, False),
    ("phase_trigger", None, False),
)
(HERALD, DEAD_TIME, TRAP, HOLD, BREED, WINDOW_NOT_REACHED, WINDOW_EXPIRED,
 CONDITION_PASS, QUADRATURE_FAIL, READOUT, PHASE_TRIGGER) = range(len(EVENT_RECORDS))
EVENT_KINDS = frozenset(kind for kind, _, _ in EVENT_RECORDS)

# each record's log line as json.dumps(sort_keys=True) writes it, as a
# %-template of the pulse index and the trips; a record without trips
# swallows them with %.0s, which prints nothing
_LINE_TEMPLATES = np.array([
    '{"kind": "%s", "pulse_index": %%d%s%s}\n'
    % (kind, f', "reason": "{reason}"' if reason else "",
       ', "trips": %d' if trips else "%.0s")
    for kind, reason, trips in EVENT_RECORDS], dtype=object)


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
        for name in ("f_rep", "f_herald"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got "
                                  f"{getattr(self, name)}")
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
        if self.rng_seed < 0:
            raise DomainError(f"rng_seed must be >= 0, got {self.rng_seed}")

    @property
    def p_trip(self) -> float:
        """Per-pulse herald probability."""
        return self.f_herald / self.f_rep

    @property
    def conditioning_efficiency(self) -> float:
        return self.eta_homodyne if self.condition_with_detector_efficiency else 1.0


@dataclass(frozen=True, eq=False)
class TimelineEvents:
    """The event log as int64 columns in log order: pulse index, record
    code (a row of EVENT_RECORDS) and storage trips (0 if it has none)."""

    pulse_index: np.ndarray
    record: np.ndarray
    trips: np.ndarray

    def __len__(self) -> int:
        return len(self.pulse_index)


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


# a window peaks at about 170 bytes a gap at s = 2 and 330 at s = 3 at any cutoff
# (tracemalloc); the cap counts 80 bytes an entry of an s x s block, above either
MAX_WINDOW_BYTES = 900_000_000
_GAP_ENTRY_BYTES = 80


@lru_cache(maxsize=2)
def _heralded_window(config: ProtocolConfig) -> tuple[np.ndarray, ...]:
    """Read-only (w, c, stages) of the gaps n = n_min .. n_max, the first photon lost
    over n round trips, the second fresh; w_n = (1-p)^(n-1) p, the gap law, is 0 at
    f_herald = 0. The photon is diagonal in the Fock basis, loss keeps it so and the
    breed is linear in the held state, so gap n gives p_n rho_n = sum_k c[n, k] sigma_k:
    sigma (s, d, d) are the breeds of |k><k|, k < s (the photon's support: 2, or 3 if
    w2 > 0) against the fresh photon, q_k their herald probabilities and
    c[n, k] = <k|L_eta^n(photon)|k> q_k, the photon lost as its s populations at every
    gap. Loss is linear too, so every later stage of gap n is the same mix of its lost
    basis: stages (3, s, d, d) is one loss of sigma at transmissions 1 (as bred, exactly),
    t = per_trip ** readout_trips (stored) and t eta_homodyne (measured: L_eta L_t = L_(t eta)).
    p_n = sum_k c[n, k] >= min_k q_k, so _breed's refusal of the basis covers every gap.
    Refused above MAX_WINDOW_BYTES before the breed, the population and the stage loss."""
    count, s = config.n_max - config.n_min + 1, 3 if config.two_photon_weight > 0 else 2
    size = count * s * s * _GAP_ENTRY_BYTES
    if size > MAX_WINDOW_BYTES:
        raise DomainError(
            f"storage window [{config.n_min}, {config.n_max}] counts {size / 1e9:.3g} GB "
            f"at {s * s} entries of {_GAP_ENTRY_BYTES} B a gap, above "
            f"{MAX_WINDOW_BYTES / 1e9:g} GB")
    # both inputs at the breed's work cutoff, so nothing here grows with the cutoff
    work = FockCutoff(min(2 * s - 2, config.cutoff.n_max))
    fresh = single_photon_state(config.photon_fidelity, config.two_photon_weight, work).matrix
    basis = np.zeros((s,) + fresh.shape, dtype=complex)
    basis[(range(s),) * 3] = 1.0
    sigma, q = _breed(basis, fresh, config.window, config.conditioning_efficiency)
    # Python's pow, as in storage_evolve: numpy's SIMD power may differ in the last bit
    held = _lose_populations(np.diagonal(fresh)[:s].real,
                             [config.per_trip_transmission ** n
                              for n in range(config.n_min, config.n_max + 1)])
    weights = held * q
    gap_law = (1.0 - config.p_trip) ** np.arange(config.n_min - 1, config.n_max) * config.p_trip
    t = config.per_trip_transmission ** config.readout_trips
    window = gap_law, weights, _lose(sigma, np.array([1.0, t, t * config.eta_homodyne])[:, None])
    for arr in window:
        arr.setflags(write=False)
    return window


def _require_heralds(config: ProtocolConfig) -> None:
    if config.p_trip == 0.0:
        raise DomainError("f_herald is 0: no photon is ever heralded, so the heralded "
                          "mixture over storage lengths is undefined")


def _basis_fidelities(states: np.ndarray, target: StateVector) -> np.ndarray:
    """The overlaps <psi|x_k|psi> of a stage's basis outputs x_k with ``target``."""
    v = target.amplitudes[:states.shape[-1]]
    return np.einsum("i,kij,j->k", v.conj(), states, v).real


@dataclass(frozen=True, eq=False)
class PipelineStates:
    """The operating-point state at its three observable stages."""

    creation: DensityOperator      # heralded mixture, before readout storage
    stored: DensityOperator        # after the readout storage trips
    measured: DensityOperator      # as seen by the lossy homodyne detector
    mean_condition_probability: float


def pipeline_states(config: ProtocolConfig) -> PipelineStates:
    """Simulate the full protocol at one operating point.

    Every stage is the mixture over first-photon storage lengths n by the
    success weight w_n p_n, which the curve and the timeline share:
    sum_k (w.c)_k x_k / (w.p) over the window's basis outputs x_k at that
    stage, zero-padded to the cutoff: as bred (creation), after the readout
    storage loss (stored), and after the homodyne detection loss too (measured).
    mean_condition_probability averages p_n over the in-window gap law w_n.
    """
    _require_heralds(config)
    gap_law, weights, stages = _heralded_window(config)
    mix = gap_law @ weights
    # the (1, s) share times each stage's (s, d*d) rows: bit-identical to
    # np.tensordot(share, stage, 1), which reduces to this np.dot
    share, d = (mix / mix.sum())[None], stages.shape[-1]
    padded = np.zeros((3,) + (config.cutoff.dimension,) * 2, dtype=complex)
    for out, stage in zip(padded, stages.reshape(3, len(mix), d * d)):
        out[:d, :d] = np.dot(share, stage).reshape(d, d)
    creation, stored, measured = (DensityOperator(m, config.cutoff) for m in padded)
    return PipelineStates(creation, stored, measured, mix.sum() / gap_law.sum())


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

    <psi|rho|psi> is linear in rho, so each fidelity at n_max is a running sum
    over the gaps n_min .. n_max of w_n p_n <psi|rho_n|psi> (at creation, and
    after the readout storage trips) over the running sum of the success
    weight w_n p_n that pipeline_states and the timeline share. The window is
    bred once, for the widest n_max, and p_n <psi|rho_n|psi> = sum_k c[n, k] f_k
    reads the s overlaps f_k of its basis at each stage: the cost is linear in
    the window alone. The sum of w_n is window_probability, so generation_rate
    at n_max is f_herald / 3 * beta_elec times the running sum of w_n p_n.
    """
    if len(n_max_values) == 0:
        raise DomainError("n_max_values must be non-empty")
    if any(m < config.n_min for m in n_max_values):
        raise DomainError("every n_max must be >= config.n_min")
    if target is None:
        target = target_cat(TargetCatSpec(), config.cutoff)
    elif target.cutoff != config.cutoff:
        raise DomainError("fidelity requires matching cutoffs")
    _require_heralds(config)
    gap_law, weights, stages = _heralded_window(replace(config, n_max=max(n_max_values)))
    rows = np.asarray(n_max_values) - config.n_min
    heralded = np.cumsum(gap_law * weights.sum(axis=1))[rows]
    created, stored = (np.cumsum(gap_law * (weights @ _basis_fidelities(stage, target)))[rows]
                       / heralded for stage in stages[:2])
    scale = config.f_herald / 3.0 * config.beta_elec
    return [CurveRow(m, scale * h, float(f_created), float(f_stored))
            for m, h, f_created, f_stored in zip(n_max_values, heralded, created, stored)]


CURVE_CSV_HEADER = "n_max,rate_hz,fidelity_at_creation,fidelity_after_readout"


def write_curve_csv(rows: Sequence[CurveRow], path) -> None:
    table = np.array([(r.n_max, r.rate_hz, r.fidelity_at_creation,
                       r.fidelity_after_readout) for r in rows]).reshape(-1, 4)
    _write_csv(path, CURVE_CSV_HEADER, table, fmt=["%d"] + ["%.10g"] * 3)


def write_event_log(events: TimelineEvents, path) -> None:
    """Line-delimited structured records, one JSON object per event,
    formatted _ROWS_PER_WRITE rows at a time, with one % over their joined
    templates, so that memory does not grow with the log."""
    with open(path, "w") as fh:
        for i in range(0, len(events), _ROWS_PER_WRITE):
            rows = slice(i, i + _ROWS_PER_WRITE)
            fields = np.stack([events.pulse_index[rows], events.trips[rows]], axis=1)
            fh.write("".join(_LINE_TEMPLATES[events.record[rows]].tolist())
                     % tuple(fields.ravel().tolist()))


# a simulate run peaks at about 200 bytes per herald (351 MB for 1.55 M),
# so the largest run this cap accepts stays below 0.9 GB; larger runs are
# refused before they draw anything
MAX_EXPECTED_HERALDS = 4_000_000


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
                      duration_s: float) -> tuple[RunStatistics, TimelineEvents]:
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
        duration_s: simulated wall time, > 0 and finite in pulses, with at
            most MAX_EXPECTED_HERALDS expected heralds (f_herald * duration_s).

    Returns:
        (RunStatistics, TimelineEvents). Event pulse indices are
        non-decreasing; simultaneous physical events (a herald and the
        trap it causes) share a pulse index and keep emission order.
    """
    if not 0.0 < duration_s * config.f_rep < np.inf:
        raise DomainError(f"duration must be > 0 and finite in pulses, got {duration_s}")
    expected = config.f_herald * duration_s
    if expected > MAX_EXPECTED_HERALDS:
        raise DomainError(
            f"a {duration_s:g} s run expects {expected:.3g} heralds; the "
            f"timeline accepts at most {MAX_EXPECTED_HERALDS:.3g}")
    # bred before anything is drawn, so an oversized window draws nothing
    _, weights, stages = _heralded_window(config)
    p_cond = weights.sum(axis=1)
    fid_out = weights @ _basis_fidelities(
        stages[1], target_cat(TargetCatSpec(), config.cutoff)) / p_cond

    rng = np.random.default_rng(config.rng_seed)
    n_pulses = int(round(duration_s * config.f_rep))
    heralds = _herald_pulses(rng, config.p_trip, n_pulses)

    n_cycles = len(heralds) // 3
    u_live = rng.random(n_cycles)
    u_cond = rng.random(n_cycles)

    h1, h2, h3 = heralds[:3 * n_cycles].reshape(n_cycles, 3).T
    gap = h2 - h1
    live = u_live < config.beta_elec
    bred = live & (gap >= config.n_min) & (gap <= config.n_max)
    in_window = np.clip(gap - config.n_min, 0, config.n_max - config.n_min)
    passed = bred & (u_cond < p_cond[in_window])

    # Each sequence has six record slots of (pulse, record, trips): trap or
    # dead_time, hold, breed or window fail, pass or quadrature fail,
    # readout, phase trigger. The log is every herald, then the emitted
    # slots in sequence order, stably sorted by pulse.
    slots = np.zeros((n_cycles, 6, 3), dtype=np.int64)
    slots[..., 0] = np.stack([h1, h1, h2, h2, h2 + config.readout_trips, h3], axis=1)
    slots[..., 1] = [TRAP, HOLD, BREED, CONDITION_PASS, READOUT, PHASE_TRIGGER]
    slots[~live, 0, 1] = DEAD_TIME
    slots[gap < config.n_min, 2, 1] = WINDOW_NOT_REACHED
    slots[gap > config.n_max, 2, 1] = WINDOW_EXPIRED
    slots[~passed, 3, 1] = QUADRATURE_FAIL
    slots[:, 1:3, 2] = gap[:, None]
    always = np.ones(n_cycles, dtype=bool)
    emitted = np.stack([always, live, live, bred, passed, always], axis=1)
    herald_rows = np.stack(
        [heralds, np.full_like(heralds, HERALD), np.zeros_like(heralds)], axis=1)
    rows = np.concatenate([herald_rows, slots[emitted]])
    del herald_rows, slots  # freed before the sort copies the rows
    events = TimelineEvents(*rows[np.argsort(rows[:, 0], kind="stable")].T)

    stored = gap[passed]
    successes = len(stored)
    trips_seen, counts = np.unique(stored, return_counts=True)
    # summed in sequence order: np.sum's pairwise order moves the last bits
    fid_sum = float(np.cumsum(fid_out[stored - config.n_min])[-1]) if successes else 0.0
    stats = RunStatistics(
        attempts=n_cycles,
        successes=successes,
        duration_s=duration_s,
        estimated_rate_hz=successes / duration_s,
        mean_first_photon_storage=(
            int(stored.sum()) / successes if successes else float("nan")),
        storage_histogram=dict(zip(trips_seen.tolist(), counts.tolist())),
        mean_output_fidelity=(fid_sum / successes if successes else float("nan")),
    )
    return stats, events
