import json
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from catbreed import (CURVE_CSV_HEADER, DEFAULT_PER_TRIP_TRANSMISSION,
                      AcceptanceWindow, CurveRow, DensityOperator, DomainError,
                      EVENT_KINDS, EVENT_RECORDS, FockCutoff,
                      HeraldImpossibleError, ProtocolConfig, RunStatistics,
                      TargetCatSpec, TimelineEvents, breed, calibrate_beta_elec,
                      fidelity_to_pure, fidelity_vs_storage_curve, fock_state,
                      generation_rate, per_trip_transmission_from_total,
                      pipeline_states, simulate_timeline, single_photon_state,
                      storage_evolve, target_cat, window_probability,
                      write_curve_csv, write_event_log)
import catbreed.protocol as protocol
from catbreed.optics import _lose
from catbreed.protocol import (MAX_EXPECTED_HERALDS, MAX_WINDOW_BYTES,
                               _herald_pulses, _heralded_window)
from conftest import random_density

CFG = ProtocolConfig()


def geometric_window_sum(p: float, n_min: int, n_max: int) -> float:
    """Independent oracle: direct sum of the geometric gap law."""
    return sum((1.0 - p) ** (n - 1) * p for n in range(n_min, n_max + 1))


# ---------------------------------------------------------------------------
# loss arithmetic

def test_per_trip_transmission_from_aggregate_figure():
    t = per_trip_transmission_from_total(0.159, 15)
    assert t ** 15 == pytest.approx(1.0 - 0.159, abs=1e-12)
    assert DEFAULT_PER_TRIP_TRANSMISSION == pytest.approx(t)
    with pytest.raises(DomainError):
        per_trip_transmission_from_total(1.0, 15)
    with pytest.raises(DomainError):
        per_trip_transmission_from_total(-0.1, 15)
    with pytest.raises(DomainError):
        per_trip_transmission_from_total(0.159, 0)


def test_storage_evolve_zero_trips_is_identity():
    rho = fock_state(1, CFG.cutoff).to_density()
    out = storage_evolve(rho, 0, 0.9)
    np.testing.assert_allclose(out.matrix, rho.matrix)


def test_storage_evolve_single_photon_closed_form():
    rho = fock_state(1, CFG.cutoff).to_density()
    t = DEFAULT_PER_TRIP_TRANSMISSION
    for n in (1, 5, 15):
        out = storage_evolve(rho, n, t)
        assert out.populations()[1] == pytest.approx(t ** n, abs=1e-12)


def test_storage_evolve_removes_published_loss_after_readout():
    rho = fock_state(1, CFG.cutoff).to_density()
    out = storage_evolve(rho, 15, DEFAULT_PER_TRIP_TRANSMISSION)
    removed = 1.0 - out.populations()[1]
    assert removed == pytest.approx(0.159, abs=1e-9)


def test_storage_evolve_semigroup():
    rng = np.random.default_rng(20)
    rho = random_density(rng, 10)
    t = 0.93
    split = storage_evolve(storage_evolve(rho, 3, t), 2, t)
    joined = storage_evolve(rho, 5, t)
    np.testing.assert_allclose(split.matrix, joined.matrix, atol=1e-10)


def test_storage_evolve_rejects_negative_trips():
    rho = fock_state(0, CFG.cutoff).to_density()
    with pytest.raises(DomainError):
        storage_evolve(rho, -1, 0.9)


# ---------------------------------------------------------------------------
# window probability and rate model

def test_window_probability_matches_direct_sum():
    rng = np.random.default_rng(21)
    for _ in range(20):
        p = rng.uniform(1e-4, 0.5)
        n_min = int(rng.integers(1, 10))
        n_max = n_min + int(rng.integers(0, 30))
        assert window_probability(p, n_min, n_max) == pytest.approx(
            geometric_window_sum(p, n_min, n_max), abs=1e-12)


def test_window_probability_operating_point():
    assert window_probability(CFG.p_trip, 1, 15) == pytest.approx(
        0.059467744283, abs=1e-9)


def test_window_probability_saturates():
    assert window_probability(0.004, 1, 10 ** 6) == pytest.approx(1.0, abs=1e-9)
    assert window_probability(0.5, 2, 2) == pytest.approx(0.25, abs=1e-12)


def test_window_probability_rejects_bad_arguments():
    with pytest.raises(DomainError):
        window_probability(0.0, 1, 15)
    with pytest.raises(DomainError):
        window_probability(1.0, 1, 15)
    with pytest.raises(DomainError):
        window_probability(0.1, 0, 15)
    with pytest.raises(DomainError):
        window_probability(0.1, 5, 4)


def test_generation_rate_published_example():
    # a 23.5% conditioning probability at the stock operating point
    # corresponds to roughly 1.44 kHz
    rate = generation_rate(CFG, 0.235)
    assert 1430.0 < rate < 1450.0


def test_generation_rate_scales_linearly_with_duty_cycle():
    full = generation_rate(CFG, 0.2)
    half = generation_rate(replace(CFG, beta_elec=0.5), 0.2)
    assert half == pytest.approx(0.5 * full, rel=1e-12)


def test_generation_rate_zero_without_heralds():
    silent = replace(CFG, f_herald=0.0)
    assert generation_rate(silent, 0.2) == 0.0


def test_generation_rate_monotone_in_window_length():
    rates = [generation_rate(replace(CFG, n_max=m), 0.22)
             for m in (1, 5, 15, 50)]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_generation_rate_rejects_bad_probability():
    with pytest.raises(DomainError):
        generation_rate(CFG, 1.2)
    with pytest.raises(DomainError):
        generation_rate(CFG, -0.1)


def test_calibrate_beta_elec_inverts_rate():
    beta = calibrate_beta_elec(CFG, 700.0, 0.22)
    recovered = generation_rate(replace(CFG, beta_elec=beta), 0.22)
    assert recovered == pytest.approx(700.0, rel=1e-12)


def test_calibrate_beta_elec_operating_point():
    states = pipeline_states(CFG)
    beta = calibrate_beta_elec(CFG, 1000.0, states.mean_condition_probability)
    assert beta == pytest.approx(0.733286452, abs=1e-6)


def test_calibrate_beta_elec_rejects_unreachable_targets():
    with pytest.raises(DomainError):
        calibrate_beta_elec(CFG, 0.0, 0.22)
    ceiling = generation_rate(CFG, 0.22)
    with pytest.raises(DomainError):
        calibrate_beta_elec(CFG, 2.0 * ceiling, 0.22)


# ---------------------------------------------------------------------------
# pipeline states

def test_pipeline_states_operating_point_fidelities():
    cat = target_cat(TargetCatSpec(), CFG.cutoff)
    states = pipeline_states(CFG)
    assert fidelity_to_pure(states.creation, cat) == pytest.approx(
        0.748826341, abs=1e-6)
    assert fidelity_to_pure(states.stored, cat) == pytest.approx(
        0.620263522, abs=1e-6)
    assert states.mean_condition_probability == pytest.approx(
        0.221924083, abs=1e-6)


def test_pipeline_states_with_conditioning_inefficiency():
    cfg = replace(CFG, condition_with_detector_efficiency=True)
    cat = target_cat(TargetCatSpec(), cfg.cutoff)
    states = pipeline_states(cfg)
    assert fidelity_to_pure(states.creation, cat) == pytest.approx(
        0.673092760, abs=1e-6)
    assert fidelity_to_pure(states.stored, cat) == pytest.approx(
        0.555983486, abs=1e-6)


def test_pipeline_states_need_heralds(monkeypatch):
    # without heralds the in-window gap law has no mass to normalize;
    # the refusal comes before the first breed
    def unreachable(*args, **kwargs):
        raise AssertionError("bred before f_herald was checked")

    monkeypatch.setattr(protocol, "_breed", unreachable)
    silent = replace(CFG, f_herald=0.0)
    with pytest.raises(DomainError, match="f_herald"):
        pipeline_states(silent)
    with pytest.raises(DomainError, match="f_herald"):
        fidelity_vs_storage_curve(silent, [1, 5])


def test_pipeline_states_are_physical_and_chained():
    # every stage mixes the window's own lost basis, within round-off of the
    # readout and detector losses applied to the padded states
    from catbreed import loss_channel
    for config in (CFG, replace(CFG, two_photon_weight=0.05),
                   replace(CFG, condition_with_detector_efficiency=True),
                   replace(CFG, readout_trips=0), replace(CFG, cutoff=FockCutoff(40)),
                   replace(CFG, n_min=3, n_max=60, two_photon_weight=0.05, readout_trips=0,
                           condition_with_detector_efficiency=True, cutoff=FockCutoff(40))):
        states = pipeline_states(config)
        states.creation.validate()
        states.stored.validate()
        states.measured.validate()
        stored = storage_evolve(states.creation, config.readout_trips,
                                config.per_trip_transmission)
        measured = loss_channel(stored, config.eta_homodyne)
        assert np.abs(stored.matrix - states.stored.matrix).max() <= 2 ** -53
        assert np.abs(measured.matrix - states.measured.matrix).max() <= 1.7e-16


@pytest.mark.parametrize("config", [CFG, replace(CFG, n_min=3, two_photon_weight=0.05,
                                                  condition_with_detector_efficiency=True)])
def test_pipeline_creation_is_the_heralded_mixture(config):
    states = pipeline_states(config)
    creation, p_mean = heralded_mixture(config, gap_breeds(config))
    assert np.abs(states.creation.matrix - creation.matrix).max() <= 1e-15
    assert abs(states.mean_condition_probability - p_mean) <= 1e-15


@pytest.mark.parametrize("cond_eff", [False, True])
@pytest.mark.parametrize("w2", [0.0, 0.05])
def test_pipeline_curve_and_timeline_share_one_success_weight(w2, cond_eff):
    # a sequence succeeds at gap n with probability w_n p_n, so the stored
    # pipeline state, the curve's row at n_max and the timeline's expected mean
    # output fidelity all weight the per-gap stored states by it
    config = replace(CFG, two_photon_weight=w2, condition_with_detector_efficiency=cond_eff)
    cat = target_cat(TargetCatSpec(), config.cutoff)
    bred = gap_breeds(config)
    gaps = np.arange(config.n_min, config.n_max + 1)
    success = (1.0 - config.p_trip) ** (gaps - 1) * config.p_trip * np.array(
        [b.probability for b in bred])
    stored = [fidelity_to_pure(storage_evolve(b.state, config.readout_trips,
                                              config.per_trip_transmission), cat)
              for b in bred]
    expected = np.dot(success, stored) / success.sum()
    row = fidelity_vs_storage_curve(config, [config.n_max])[0]
    assert abs(fidelity_to_pure(pipeline_states(config).stored, cat) - expected) <= 1e-14
    assert abs(row.fidelity_after_readout - expected) <= 1e-14


def test_pipeline_fidelity_degrades_along_the_chain():
    cat = target_cat(TargetCatSpec(), CFG.cutoff)
    states = pipeline_states(CFG)
    f = [fidelity_to_pure(s, cat)
         for s in (states.creation, states.stored, states.measured)]
    assert f[0] > f[1] > f[2]


# ---------------------------------------------------------------------------
# rate/fidelity trade-off curve

def test_curve_short_window_with_ideal_photons():
    ideal = replace(CFG, photon_fidelity=1.0)
    row = fidelity_vs_storage_curve(ideal, [1])[0]
    assert row.fidelity_at_creation == pytest.approx(0.978514567, abs=1e-6)
    assert row.fidelity_at_creation > 0.97
    lossless = replace(ideal, per_trip_transmission=1.0)
    row2 = fidelity_vs_storage_curve(lossless, [1])[0]
    assert 0.98 < row2.fidelity_at_creation < 0.995


def test_curve_single_row_matches_pipeline():
    cat = target_cat(TargetCatSpec(), CFG.cutoff)
    row = fidelity_vs_storage_curve(CFG, [CFG.n_max])[0]
    states = pipeline_states(CFG)
    assert row.fidelity_at_creation == pytest.approx(
        fidelity_to_pure(states.creation, cat), abs=1e-12)
    assert row.fidelity_after_readout == pytest.approx(
        fidelity_to_pure(states.stored, cat), abs=1e-12)
    assert row.rate_hz == pytest.approx(
        generation_rate(CFG, states.mean_condition_probability), rel=1e-12)


def test_curve_monotone_trade_off():
    rows = fidelity_vs_storage_curve(CFG, list(range(1, 31)))
    rates = [r.rate_hz for r in rows]
    f_create = [r.fidelity_at_creation for r in rows]
    f_read = [r.fidelity_after_readout for r in rows]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(f_create, f_create[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(f_read, f_read[1:]))
    assert all(r.fidelity_at_creation > r.fidelity_after_readout for r in rows)


def test_curve_rejects_bad_sweeps():
    with pytest.raises(DomainError):
        fidelity_vs_storage_curve(CFG, [])
    with pytest.raises(DomainError):
        fidelity_vs_storage_curve(replace(CFG, n_min=3, n_max=15), [2])


def test_curve_csv_round_trip(tmp_path):
    rows = fidelity_vs_storage_curve(CFG, [1, 5, 15])
    path = tmp_path / "curve.csv"
    write_curve_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "n_max,rate_hz,fidelity_at_creation,fidelity_after_readout"
    assert len(lines) == 4
    for row, line in zip(rows, lines[1:]):
        n_max, rate, fc, fr = line.split(",")
        assert int(n_max) == row.n_max
        assert float(rate) == pytest.approx(row.rate_hz, rel=1e-9)
        assert float(fc) == pytest.approx(row.fidelity_at_creation, rel=1e-9)
        assert float(fr) == pytest.approx(row.fidelity_after_readout, rel=1e-9)


def reference_curve_csv(rows, path):
    """The per-row curve writer that the table writer replaced."""
    lines = [CURVE_CSV_HEADER]
    for r in rows:
        lines.append(f"{r.n_max},{r.rate_hz:.10g},"
                     f"{r.fidelity_at_creation:.10g},{r.fidelity_after_readout:.10g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_curve_csv_matches_the_per_row_oracle(tmp_path):
    rows = fidelity_vs_storage_curve(CFG, [1, 5, 15]) + [
        CurveRow(10**6, 0.0, -0.0, 1e-300),
        CurveRow(7, 1.0 / 3.0, 0.12345678901234, 2.0e7)]
    table, reference = tmp_path / "table.csv", tmp_path / "reference.csv"
    for case in (rows, []):
        write_curve_csv(case, table)
        reference_curve_csv(case, reference)
        assert table.read_bytes() == reference.read_bytes()


def gap_breeds(config):
    """Oracle: the heralded outcome of each gap n = n_min .. n_max, one public
    breed of the fresh photon lost over n round trips against a fresh one."""
    fresh = single_photon_state(config.photon_fidelity, config.two_photon_weight,
                                config.cutoff)
    return [breed(storage_evolve(fresh, n, config.per_trip_transmission), fresh,
                  config.window, config.conditioning_efficiency)
            for n in range(config.n_min, config.n_max + 1)]


def heralded_mixture(config, bred):
    """Oracle: creation state and mean herald probability of the gaps n_min ..
    n_min + len(bred) - 1. The per-gap states mix by the success weight w_n p_n
    normalised, the herald probabilities by the normalised gap law w_n."""
    gaps = np.arange(config.n_min, config.n_min + len(bred))
    gap_law = (1.0 - config.p_trip) ** (gaps - 1) * config.p_trip
    probs = np.array([b.probability for b in bred])
    success = gap_law * probs
    creation_mat = np.zeros((config.cutoff.dimension,) * 2, dtype=complex)
    p_mean = 0.0
    for u, w, b, prob in zip(success / success.sum(), gap_law / gap_law.sum(), bred, probs):
        creation_mat += u * b.state.matrix
        p_mean += w * prob
    return DensityOperator(creation_mat, config.cutoff), p_mean


def reference_curve(config, n_max_values, target=None):
    """Oracle: the per-row curve the running sums replaced, one heralded
    mixture per n_max, then the readout loss, then fidelity_to_pure."""
    if target is None:
        target = target_cat(TargetCatSpec(), config.cutoff)
    bred = gap_breeds(replace(config, n_max=max(n_max_values)))
    t = config.per_trip_transmission ** config.readout_trips
    rows = []
    for m in n_max_values:
        creation, p_mean = heralded_mixture(config, bred[:m - config.n_min + 1])
        stored = DensityOperator(_lose(creation.matrix, t), config.cutoff)
        rows.append(CurveRow(m, generation_rate(replace(config, n_max=m), p_mean),
                             fidelity_to_pure(creation, target),
                             fidelity_to_pure(stored, target)))
    return rows


def assert_rows_match(rows, want):
    assert [r.n_max for r in rows] == [r.n_max for r in want]
    for got, ref in zip(rows, want):
        assert abs(got.rate_hz - ref.rate_hz) <= 1e-14 * ref.rate_hz
        assert abs(got.fidelity_at_creation - ref.fidelity_at_creation) <= 1e-15
        assert abs(got.fidelity_after_readout - ref.fidelity_after_readout) <= 1e-15


@pytest.mark.parametrize("cutoff", [20, 40])
@pytest.mark.parametrize("per_trip", [1.0, DEFAULT_PER_TRIP_TRANSMISSION])
@pytest.mark.parametrize("cond_eff", [False, True])
@pytest.mark.parametrize("w2", [0.0, 0.05])
def test_curve_matches_the_per_row_oracle(w2, cond_eff, per_trip, cutoff):
    # a window at n_min > 1, each row against its own per-gap mixture
    config = replace(CFG, n_min=3, two_photon_weight=w2,
                     condition_with_detector_efficiency=cond_eff,
                     per_trip_transmission=per_trip, cutoff=FockCutoff(cutoff))
    n_max_values = [3, 4, 17, 99, 100]
    if (w2, cond_eff, per_trip, cutoff) == (0.05, True, DEFAULT_PER_TRIP_TRANSMISSION, 20):
        n_max_values.append(502)   # a 500-gap running sum, where the rate's round-off peaks
    assert_rows_match(fidelity_vs_storage_curve(config, n_max_values),
                      reference_curve(config, n_max_values))


def test_curve_rows_follow_unsorted_and_repeated_values():
    n_max_values = [9, 1, 30, 9, 4, 30, 1]
    rows = fidelity_vs_storage_curve(CFG, n_max_values)
    assert_rows_match(rows, reference_curve(CFG, n_max_values))
    by_n_max = {r.n_max: r for r in fidelity_vs_storage_curve(CFG, sorted(set(n_max_values)))}
    assert rows == [by_n_max[m] for m in n_max_values]


def test_curve_refuses_a_target_at_another_cutoff():
    with pytest.raises(DomainError, match="matching cutoffs"):
        fidelity_vs_storage_curve(CFG, [1, 5], target_cat(TargetCatSpec(), FockCutoff(30)))
    target = fock_state(2, CFG.cutoff)
    assert_rows_match(fidelity_vs_storage_curve(CFG, [1, 5], target),
                      reference_curve(CFG, [1, 5], target))


def forbid_losses_and_breeds(monkeypatch):
    """Make every loss, breed and closed-form window probability in the protocol
    module raise, so that a reader can only read a window bred beforehand."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a reader lost, bred or summed the gap law of its own")

    for name in ("_breed", "_lose", "_lose_populations", "loss_channel", "storage_evolve",
                 "window_probability"):
        monkeypatch.setattr(protocol, name, unreachable)


@pytest.mark.parametrize("w2", [0.0, 0.05])
def test_curve_makes_no_loss_or_breed_of_its_own(monkeypatch, w2):
    # a 1000-value curve reads the window's bred and stored stages and its
    # running sum of w_n p_n; it loses, breeds and sums the gap law nothing itself
    config = replace(CFG, n_max=1000, two_photon_weight=w2)
    _heralded_window(config)      # bred before the readers are cut off
    want = reference_curve(config, [1, 500, 1000])
    forbid_losses_and_breeds(monkeypatch)
    rows = fidelity_vs_storage_curve(config, list(range(1, 1001)))
    assert_rows_match([rows[0], rows[499], rows[-1]], want)


@pytest.mark.parametrize("w2", [0.0, 0.05])
def test_pipeline_and_timeline_make_no_loss_or_breed_of_their_own(monkeypatch, w2):
    # the stored and measured states and the timeline's fidelities are read
    # from the window's stages, so cutting off every loss changes no output
    config = replace(FAST, two_photon_weight=w2)
    want_states, (want_stats, want_events) = (pipeline_states(config),
                                              simulate_timeline(config, 1e-4))
    forbid_losses_and_breeds(monkeypatch)
    states, (stats, events) = pipeline_states(config), simulate_timeline(config, 1e-4)
    for label in ("creation", "stored", "measured"):
        assert np.array_equal(getattr(states, label).matrix,
                              getattr(want_states, label).matrix)
    assert stats == want_stats
    for column in ("pulse_index", "record", "trips"):
        assert np.array_equal(getattr(events, column), getattr(want_events, column))


# ---------------------------------------------------------------------------
# configuration validation

def test_protocol_config_rejects_bad_values():
    with pytest.raises(DomainError):
        replace(CFG, n_min=0)
    with pytest.raises(DomainError):
        replace(CFG, n_min=16, n_max=15)
    with pytest.raises(DomainError):
        replace(CFG, f_herald=80e6)
    # a non-finite rate is refused by name, not by a check downstream
    for name in ("f_rep", "f_herald"):
        for value in (np.inf, np.nan):
            with pytest.raises(DomainError, match=f"^{name} must be finite"):
                replace(CFG, **{name: value})
    with pytest.raises(DomainError):
        replace(CFG, beta_elec=1.5)
    with pytest.raises(DomainError):
        replace(CFG, per_trip_transmission=0.0)
    with pytest.raises(DomainError):
        replace(CFG, eta_homodyne=0.0)
    with pytest.raises(DomainError):
        replace(CFG, readout_trips=-1)
    # numpy's generators take no negative seed; refused before anything is bred
    with pytest.raises(DomainError, match="rng_seed must be >= 0"):
        replace(CFG, rng_seed=-1)


def test_conditioning_efficiency_follows_flag():
    assert CFG.conditioning_efficiency == 1.0
    flagged = replace(CFG, condition_with_detector_efficiency=True)
    assert flagged.conditioning_efficiency == pytest.approx(0.76)


# ---------------------------------------------------------------------------
# Monte Carlo timeline

FAST = replace(CFG, f_herald=5e6, rng_seed=7)


def window_parts(config: ProtocolConfig) -> SimpleNamespace:
    """The storage window of ``config`` by name, the one place the tests unpack it:
    the gap law w (G,), the per-gap weights c (G, s) and the stages (3, s, d, d),
    the basis outputs as bred, after the readout trips and at the detector."""
    gap_law, weights, stages = _heralded_window(config)
    return SimpleNamespace(gap_law=gap_law, weights=weights, stages=stages)


def window_tables(config: ProtocolConfig) -> tuple[np.ndarray, np.ndarray]:
    """The per-gap herald probabilities p_n = sum_k c[n, k] and stored fidelities
    f_n = sum_k c[n, k] g_k / p_n that the timeline reads from the window, g_k
    the stored overlaps of its basis outputs with the default target."""
    window = window_parts(config)
    stored = protocol._basis_fidelities(window.stages[1],
                                        target_cat(TargetCatSpec(), config.cutoff))
    probs = window.weights.sum(axis=1)
    return probs, window.weights @ stored / probs


def expected_cycle_success(config: ProtocolConfig) -> float:
    """Per-cycle success probability shared by the closed form and the MC."""
    probs, _ = window_tables(config)
    p = config.p_trip
    return config.beta_elec * sum(
        (1.0 - p) ** (n - 1) * p * probs[n - config.n_min]
        for n in range(config.n_min, config.n_max + 1))


def test_timeline_rejects_nonpositive_duration():
    for duration_s in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            simulate_timeline(CFG, duration_s)
    # no heralds to cap, but 1e301 s is an infinite number of 76 MHz pulses
    with pytest.raises(DomainError, match="finite in pulses"):
        simulate_timeline(replace(CFG, f_herald=0.0), 1e301)


def test_timeline_refuses_oversized_runs_before_they_allocate():
    # 1e7 s at 310 kHz is 3.1e12 heralds, hundreds of terabytes of events
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="expects 3.1e\\+12 heralds"):
            simulate_timeline(CFG, 1e7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # criterion 5's 0.5 s run stays far below the cap
    assert CFG.f_herald * 0.5 < MAX_EXPECTED_HERALDS / 10


def test_oversized_storage_windows_are_refused_before_the_first_breed(monkeypatch):
    # 1e7 gaps of the held photon's 2 x 2 block would take about 3.2 GB
    def unreachable(*args, **kwargs):
        raise AssertionError("ran before the storage window was checked")

    for name in ("_breed", "_lose", "_lose_populations", "_herald_pulses"):
        monkeypatch.setattr(protocol, name, unreachable)
    wide = replace(CFG, n_max=10 ** 7)
    calls = [lambda: pipeline_states(wide),
             lambda: fidelity_vs_storage_curve(CFG, [1, 10 ** 7]),
             lambda: simulate_timeline(wide, 0.01)]
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(DomainError, match="3.2 GB at 4 entries of 80 B a gap"):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # the cap is (n_max - n_min + 1) s^2 _GAP_ENTRY_BYTES, s = 2 at w2 = 0: the
    # widest window it accepts goes on to breed, one gap more is refused
    widest = MAX_WINDOW_BYTES // (2 ** 2 * protocol._GAP_ENTRY_BYTES)
    with pytest.raises(AssertionError, match="storage window was checked"):
        _heralded_window(replace(CFG, n_max=widest))
    with pytest.raises(DomainError, match="GB at 4 entries of 80 B a gap"):
        _heralded_window(replace(CFG, n_max=widest + 1))
    # the default 15-gap window stays far below the cap
    assert 15 * 3 ** 2 * protocol._GAP_ENTRY_BYTES < MAX_WINDOW_BYTES / 1000


def assert_window_matches_the_per_gap_breeds(config):
    """Each gap's state sum_k c[n, k] sigma_k / p_n, and the timeline's tables p_n
    and f_n (below cutoff 20, which has no target cat, p_n alone), against that
    gap's own public breed."""
    window = window_parts(config)
    d = window.stages.shape[-1]
    probs = window.weights.sum(axis=1)
    states = np.tensordot(window.weights, window.stages[0], 1) / probs[:, None, None]
    bred = gap_breeds(config)
    for state, prob, want in zip(states, probs, bred, strict=True):
        assert abs(prob - want.probability) <= 1e-15 * want.probability
        assert np.abs(state - want.state.matrix[:d, :d]).max() <= 1e-15
        assert not want.state.matrix[d:].any() and not want.state.matrix[:, d:].any()
    if config.cutoff.n_max < 20:
        return
    cat = target_cat(TargetCatSpec(), config.cutoff)
    tables = window_tables(config)
    assert np.array_equal(tables[0], probs)
    for fidelity, want in zip(tables[1], bred, strict=True):
        stored = storage_evolve(want.state, config.readout_trips,
                                config.per_trip_transmission)
        assert abs(fidelity - fidelity_to_pure(stored, cat)) <= 1e-15


@pytest.mark.parametrize("cutoff", [20, 40])
@pytest.mark.parametrize("per_trip", [1.0, DEFAULT_PER_TRIP_TRANSMISSION])
@pytest.mark.parametrize("cond_eff", [False, True])
@pytest.mark.parametrize("w2", [0.0, 0.05])
def test_window_components_match_the_per_gap_loop(w2, cond_eff, per_trip, cutoff):
    # Oracle: the per-gap breed that the window's basis outputs replaced, over
    # 300 gaps at n_min > 1
    assert_window_matches_the_per_gap_breeds(replace(
        CFG, n_min=3, n_max=302, two_photon_weight=w2,
        condition_with_detector_efficiency=cond_eff, per_trip_transmission=per_trip,
        cutoff=FockCutoff(cutoff)))


@pytest.mark.parametrize("photon_fidelity, w2, cutoff", [
    (1.0, 0.0, 20), (0.0, 0.3, 20), (0.0, 0.0, 20), (0.87, 0.05, 2)],
    ids=["ideal", "no_one_photon", "vacuum", "cutoff_2"])
def test_window_matches_the_per_gap_loop_at_the_photon_edges(photon_fidelity, w2, cutoff):
    # a photon without its one-photon or two-photon part, and a cutoff below the
    # breed's work cutoff of 2 (s - 1) photons
    assert_window_matches_the_per_gap_breeds(replace(
        CFG, n_max=40, photon_fidelity=photon_fidelity, two_photon_weight=w2,
        cutoff=FockCutoff(cutoff)))


@pytest.mark.parametrize("w2", [0.0, 0.05])
def test_window_is_one_breed_of_its_basis_and_three_losses(monkeypatch, w2):
    # s = 2 number states, or 3 with a two-photon part, whatever the window's
    # length or the cutoff; the photon's s populations lost at every gap at once,
    # then the s bred states lost over the readout trips and at the detector
    calls = []
    for name in ("_breed", "_lose_populations", "_lose"):
        def counted(a, b, *args, real=getattr(protocol, name), name=name):
            calls.append((name, a.shape, np.shape(b)) + args)
            return real(a, b, *args)
        monkeypatch.setattr(protocol, name, counted)
    s = 3 if w2 else 2
    work = (s, 2 * s - 1, 2 * s - 1)
    window = window_parts(replace(CFG, n_max=500, two_photon_weight=w2,
                                  cutoff=FockCutoff(100)))
    assert calls == [("_breed", work, work[1:], CFG.window, 1.0),
                     ("_lose_populations", (s,), (500,)),
                     ("_lose", work, ()),
                     ("_lose", work, ())]
    assert window.stages.shape == (3,) + work and window.weights.shape == (500, s)
    assert not any(x.flags.writeable for x in vars(window).values())


def test_a_window_that_cannot_herald_is_refused():
    # a window too narrow for the photon pair to land in heralds with
    # probability below 1e-12 at every gap
    narrow = replace(CFG, window=AcceptanceWindow(1e-14))
    with pytest.raises(HeraldImpossibleError):
        _heralded_window(narrow)
    with pytest.raises(HeraldImpossibleError):
        pipeline_states(narrow)


def test_readouts_of_large_states_follow_the_window():
    # the window holds s basis outputs and s weights per gap, so the window, a
    # 4000-row curve and the timeline take as much memory at cutoff 100 as at
    # cutoff 20, within the bytes per gap the oversized-window refusal counts
    def peaks(config):
        target_cat(TargetCatSpec(), config.cutoff)    # cached, as after a first call
        calls = [lambda: _heralded_window(config),
                 lambda: fidelity_vs_storage_curve(config, list(range(1, 4001))),
                 lambda: simulate_timeline(config, 1e-6)]
        out = []
        for call in calls:
            _heralded_window.cache_clear()
            tracemalloc.start()
            try:
                call()
                out.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        _heralded_window.cache_clear()
        return np.array(out)

    for w2, s in [(0.0, 2), (0.05, 3)]:
        small, large = (peaks(replace(CFG, n_max=4000, two_photon_weight=w2,
                                      cutoff=FockCutoff(cutoff))) for cutoff in (20, 100))
        assert (large < 1.2 * small).all()
        assert (large < 1.2 * 4000 * s ** 2 * protocol._GAP_ENTRY_BYTES).all()


def reference_timeline(config: ProtocolConfig, duration_s: float):
    """Oracle: the per-sequence loop simulate_timeline replaced, unchanged
    but for dicts in place of event objects and the per-gap tables read from
    the window. Same RNG draws, same order."""
    rng = np.random.default_rng(config.rng_seed)
    n_pulses = int(round(duration_s * config.f_rep))
    heralds = _herald_pulses(rng, config.p_trip, n_pulses)

    n_cycles = len(heralds) // 3
    events = [{"kind": "herald", "pulse_index": int(h)} for h in heralds]

    if n_cycles > 0:
        u_live = rng.random(n_cycles)
        u_cond = rng.random(n_cycles)
    else:
        u_live = u_cond = np.zeros(0)

    probs, fidelities = window_tables(config)
    p_cond = dict(enumerate(probs, start=config.n_min))
    fid_out = dict(enumerate(fidelities, start=config.n_min))

    successes = 0
    storage_hist: dict[int, int] = {}
    fid_sum = 0.0
    for c in range(n_cycles):
        h1, h2, h3 = (int(heralds[3 * c + i]) for i in range(3))
        gap = h2 - h1
        if u_live[c] >= config.beta_elec:
            events.append({"kind": "dead_time", "pulse_index": h1})
            events.append({"kind": "phase_trigger", "pulse_index": h3})
            continue
        events.append({"kind": "trap", "pulse_index": h1})
        events.append({"kind": "hold", "pulse_index": h1, "trips": gap})
        if not config.n_min <= gap <= config.n_max:
            reason = ("storage_window_expired" if gap > config.n_max
                      else "storage_window_not_reached")
            events.append({"kind": "condition_fail", "pulse_index": h2,
                           "reason": reason, "trips": gap})
            events.append({"kind": "phase_trigger", "pulse_index": h3})
            continue
        events.append({"kind": "breed", "pulse_index": h2, "trips": gap})
        if u_cond[c] < p_cond[gap]:
            events.append({"kind": "condition_pass", "pulse_index": h2})
            events.append({"kind": "readout",
                           "pulse_index": h2 + config.readout_trips})
            successes += 1
            storage_hist[gap] = storage_hist.get(gap, 0) + 1
            fid_sum += fid_out[gap]
        else:
            events.append({"kind": "condition_fail", "pulse_index": h2,
                           "reason": "quadrature_outside_window"})
        events.append({"kind": "phase_trigger", "pulse_index": h3})

    events.sort(key=lambda ev: ev["pulse_index"])
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


def comparable(stats: RunStatistics) -> dict:
    """Statistics as a dict whose NaN fields compare equal."""
    return {k: None if isinstance(v, float) and np.isnan(v) else v
            for k, v in vars(stats).items()}


def event_kinds(events) -> np.ndarray:
    return np.array([kind for kind, _, _ in EVENT_RECORDS])[events.record]


# FAST has ~1000 heralds in 2e-4 s; CFG has 1 and 2 in the short runs
ORACLE_CASES = {
    "beta_1": (FAST, 2e-4),
    "beta_0.73": (replace(FAST, beta_elec=0.73), 2e-4),
    "beta_0.5": (replace(FAST, beta_elec=0.5), 2e-4),
    "n_min_3": (replace(FAST, n_min=3, n_max=20, rng_seed=31), 2e-4),
    "no_heralds": (replace(CFG, f_herald=0.0), 1e-4),
    "one_herald": (CFG, 3e-6),
    "two_heralds": (CFG, 5.5e-6),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_timeline_matches_the_per_sequence_oracle(tmp_path, case):
    config, duration_s = ORACLE_CASES[case]
    stats, events = simulate_timeline(config, duration_s)
    ref_stats, ref_events = reference_timeline(config, duration_s)
    assert comparable(stats) == comparable(ref_stats)
    path = tmp_path / "events.jsonl"
    write_event_log(events, path)
    assert len(events) == len(ref_events)
    assert path.read_text() == "".join(
        json.dumps(ev, sort_keys=True) + "\n" for ev in ref_events)


def test_oracle_cases_cover_the_edges():
    def kinds(case):
        return [ev["kind"] for ev in reference_timeline(*ORACLE_CASES[case])[1]]

    assert kinds("no_heralds") == []
    assert kinds("one_herald") == ["herald"]
    assert kinds("two_heralds") == ["herald", "herald"]
    _, events = reference_timeline(*ORACLE_CASES["n_min_3"])
    assert any(ev.get("reason") == "storage_window_not_reached" for ev in events)
    # a readout that shares its pulse with other records: the log order
    # there rests on emission order, not on the pulse index
    _, events = reference_timeline(*ORACLE_CASES["beta_1"])
    readouts = {ev["pulse_index"] for ev in events if ev["kind"] == "readout"}
    assert any(ev["pulse_index"] in readouts
               for ev in events if ev["kind"] != "readout")


def test_timeline_without_heralds_is_empty():
    silent = replace(CFG, f_herald=0.0)
    stats, events = simulate_timeline(silent, 1e-4)
    assert stats.attempts == 0
    assert stats.successes == 0
    assert len(events) == 0
    assert np.isnan(stats.mean_first_photon_storage)
    assert np.isnan(stats.mean_output_fidelity)


def test_timeline_is_deterministic_per_seed(tmp_path):
    stats1, events1 = simulate_timeline(FAST, 2e-4)
    stats2, events2 = simulate_timeline(FAST, 2e-4)
    assert stats1 == stats2
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_event_log(events1, p1)
    write_event_log(events2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    stats3, _ = simulate_timeline(replace(FAST, rng_seed=8), 2e-4)
    assert stats3 != stats1


def test_timeline_event_stream_is_well_formed():
    stats, events = simulate_timeline(FAST, 2e-4)
    assert np.all(np.diff(events.pulse_index) >= 0)
    kinds = event_kinds(events)
    assert set(kinds) <= EVENT_KINDS
    assert stats.attempts == np.count_nonzero(kinds == "herald") // 3
    assert np.count_nonzero(kinds == "condition_pass") == stats.successes
    # the trips column is the herald gap (>= 1) where a record carries it
    carries = np.array([trips for _, _, trips in EVENT_RECORDS])[events.record]
    assert np.all(events.trips[carries] >= 1)
    assert np.all(events.trips[~carries] == 0)
    assert sum(stats.storage_histogram.values()) == stats.successes
    assert all(FAST.n_min <= k <= FAST.n_max for k in stats.storage_histogram)
    if stats.successes:
        assert FAST.n_min <= stats.mean_first_photon_storage <= FAST.n_max
        assert 0.0 < stats.mean_output_fidelity < 1.0


def test_timeline_dead_time_requires_duty_cycle_below_one():
    _, full = simulate_timeline(FAST, 2e-4)
    assert "dead_time" not in event_kinds(full)
    _, gated = simulate_timeline(replace(FAST, beta_elec=0.5), 2e-4)
    assert "dead_time" in event_kinds(gated)


def test_timeline_event_log_is_parseable(tmp_path):
    _, events = simulate_timeline(FAST, 1e-4)
    path = tmp_path / "events.jsonl"
    write_event_log(events, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(events)
    kinds = event_kinds(events)
    for i, line in enumerate(lines):
        record = json.loads(line)
        assert record["kind"] == kinds[i]
        assert record["pulse_index"] == events.pulse_index[i]


def synthetic_events(n_rows: int) -> TimelineEvents:
    """A well-formed event table of any length: every record code in turn,
    pulse indices of the size a long run reaches, trips where carried."""
    rows = np.arange(n_rows, dtype=np.int64)
    record = rows % len(EVENT_RECORDS)
    carries = np.array([trips for _, _, trips in EVENT_RECORDS])[record]
    return TimelineEvents(pulse_index=37_000_000 + 97 * rows, record=record,
                          trips=np.where(carries, 1 + rows % 15, 0))


def test_event_log_chunks_match_the_per_row_oracle(tmp_path):
    # 20000 rows cross two chunk boundaries and end inside a chunk
    events = synthetic_events(20_000)
    path = tmp_path / "events.jsonl"
    write_event_log(events, path)
    expected = []
    for pulse, code, trips in zip(events.pulse_index.tolist(),
                                  events.record.tolist(), events.trips.tolist()):
        kind, reason, carries = EVENT_RECORDS[code]
        record = {"kind": kind, "pulse_index": pulse}
        if reason:
            record["reason"] = reason
        if carries:
            record["trips"] = trips
        expected.append(json.dumps(record, sort_keys=True) + "\n")
    assert path.read_text() == "".join(expected)


def test_event_log_memory_does_not_grow_with_the_log(tmp_path):
    peaks = {}
    for n_rows in (34_000, 340_000):
        events = synthetic_events(n_rows)
        tracemalloc.start()
        try:
            write_event_log(events, tmp_path / f"{n_rows}.jsonl")
            peaks[n_rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # one 8192-row chunk of Python ints and strings at a time; all
    # formatting all 340 000 rows at once peaks at about 19 MB
    assert peaks[340_000] < 3_000_000
    assert peaks[340_000] < 1.2 * peaks[34_000]


@pytest.mark.parametrize("beta", [1.0, 0.7])
def test_timeline_agrees_with_closed_form(beta):
    cfg = replace(FAST, beta_elec=beta, rng_seed=31)
    stats, _ = simulate_timeline(cfg, 4e-3)
    q = expected_cycle_success(cfg)
    expected = stats.attempts * q
    sigma = np.sqrt(stats.attempts * q * (1.0 - q))
    assert abs(stats.successes - expected) <= 3.0 * sigma


def test_timeline_rate_estimator_definition():
    stats, _ = simulate_timeline(FAST, 2e-4)
    assert stats.estimated_rate_hz == pytest.approx(
        stats.successes / stats.duration_s, rel=1e-12)
