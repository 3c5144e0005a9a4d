import json
from dataclasses import replace

import numpy as np
import pytest

from catbreed import (DEFAULT_PER_TRIP_TRANSMISSION, DomainError, EVENT_KINDS,
                      ProtocolConfig, TargetCatSpec, TimelineEvent,
                      calibrate_beta_elec,
                      fidelity_to_pure, fidelity_vs_storage_curve, fock_state,
                      generation_rate, per_trip_transmission_from_total,
                      pipeline_states, simulate_timeline, storage_evolve,
                      target_cat, window_probability, write_curve_csv,
                      write_event_log)
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
        0.748648505, abs=1e-6)
    assert fidelity_to_pure(states.stored, cat) == pytest.approx(
        0.620132481, abs=1e-6)
    assert states.mean_condition_probability == pytest.approx(
        0.221924083, abs=1e-6)


def test_pipeline_states_with_conditioning_inefficiency():
    cfg = replace(CFG, condition_with_detector_efficiency=True)
    cat = target_cat(TargetCatSpec(), cfg.cutoff)
    states = pipeline_states(cfg)
    assert fidelity_to_pure(states.creation, cat) == pytest.approx(
        0.673132273, abs=1e-6)
    assert fidelity_to_pure(states.stored, cat) == pytest.approx(
        0.556011684, abs=1e-6)


def test_pipeline_states_need_heralds():
    # without heralds the in-window gap law has no mass to normalize
    silent = replace(CFG, f_herald=0.0)
    with pytest.raises(DomainError, match="f_herald"):
        pipeline_states(silent)
    with pytest.raises(DomainError, match="f_herald"):
        fidelity_vs_storage_curve(silent, [1, 5])


def test_pipeline_states_are_physical_and_chained():
    states = pipeline_states(CFG)
    states.creation.validate()
    states.stored.validate()
    states.measured.validate()
    from catbreed import loss_channel
    np.testing.assert_allclose(
        storage_evolve(states.creation, CFG.readout_trips,
                       CFG.per_trip_transmission).matrix,
        states.stored.matrix, atol=1e-12)
    np.testing.assert_allclose(
        loss_channel(states.stored, CFG.eta_homodyne).matrix,
        states.measured.matrix, atol=1e-12)


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


# ---------------------------------------------------------------------------
# configuration validation

def test_protocol_config_rejects_bad_values():
    with pytest.raises(DomainError):
        replace(CFG, n_min=0)
    with pytest.raises(DomainError):
        replace(CFG, n_min=16, n_max=15)
    with pytest.raises(DomainError):
        replace(CFG, f_herald=80e6)
    with pytest.raises(DomainError):
        replace(CFG, beta_elec=1.5)
    with pytest.raises(DomainError):
        replace(CFG, per_trip_transmission=0.0)
    with pytest.raises(DomainError):
        replace(CFG, eta_homodyne=0.0)
    with pytest.raises(DomainError):
        replace(CFG, readout_trips=-1)


def test_conditioning_efficiency_follows_flag():
    assert CFG.conditioning_efficiency == 1.0
    flagged = replace(CFG, condition_with_detector_efficiency=True)
    assert flagged.conditioning_efficiency == pytest.approx(0.76)


def test_timeline_event_rejects_unknown_kind():
    with pytest.raises(DomainError):
        TimelineEvent("explode", 0)
    assert "breed" in EVENT_KINDS


# ---------------------------------------------------------------------------
# Monte Carlo timeline

FAST = replace(CFG, f_herald=5e6, rng_seed=7)


def expected_cycle_success(config: ProtocolConfig) -> float:
    """Per-cycle success probability shared by the closed form and the MC."""
    comps_p = {}
    from catbreed.protocol import _window_components
    for n, _, prob in _window_components(config):
        comps_p[n] = prob
    p = config.p_trip
    return config.beta_elec * sum(
        (1.0 - p) ** (n - 1) * p * comps_p[n]
        for n in range(config.n_min, config.n_max + 1))


def test_timeline_rejects_nonpositive_duration():
    with pytest.raises(DomainError):
        simulate_timeline(CFG, 0.0)


def test_timeline_without_heralds_is_empty():
    silent = replace(CFG, f_herald=0.0)
    stats, events = simulate_timeline(silent, 1e-4)
    assert stats.attempts == 0
    assert stats.successes == 0
    assert events == []
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
    indices = [ev.pulse_index for ev in events]
    assert indices == sorted(indices)
    assert all(ev.kind in EVENT_KINDS for ev in events)
    n_heralds = sum(1 for ev in events if ev.kind == "herald")
    assert stats.attempts == n_heralds // 3
    n_pass = sum(1 for ev in events if ev.kind == "condition_pass")
    assert n_pass == stats.successes
    assert sum(stats.storage_histogram.values()) == stats.successes
    assert all(FAST.n_min <= k <= FAST.n_max for k in stats.storage_histogram)
    if stats.successes:
        assert FAST.n_min <= stats.mean_first_photon_storage <= FAST.n_max
        assert 0.0 < stats.mean_output_fidelity < 1.0


def test_timeline_dead_time_requires_duty_cycle_below_one():
    _, full = simulate_timeline(FAST, 2e-4)
    assert not any(ev.kind == "dead_time" for ev in full)
    _, gated = simulate_timeline(replace(FAST, beta_elec=0.5), 2e-4)
    assert any(ev.kind == "dead_time" for ev in gated)


def test_timeline_event_log_is_parseable(tmp_path):
    _, events = simulate_timeline(FAST, 1e-4)
    path = tmp_path / "events.jsonl"
    write_event_log(events, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(events)
    for ev, line in zip(events, lines):
        record = json.loads(line)
        assert record["kind"] == ev.kind
        assert record["pulse_index"] == ev.pulse_index


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
