import gc
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from catbreed import (AcceptanceWindow, ConfigError, ConvergenceError,
                      DensityOperator, DomainError, FockCutoff,
                      HomodyneDataset, beam_splitter, bootstrap,
                      bootstrap_many, breed, fidelity, fock_state,
                      hermite_functions,
                      load_dataset_csv, loss_channel,
                      marginal_pdf, maxlik_reconstruct, pad_density_operator,
                      partial_trace, quadrature_wavefunction, read_density_csv,
                      read_meta, sample_homodyne, sample_homodyne_phases,
                      save_dataset_csv, single_photon_state, squeeze_matrix,
                      uniform_phases, write_density_csv, write_meta)
from catbreed.fock import StateVector, _phase_rotation
from catbreed.optics import _smear_povm
from catbreed.tomography import (RESAMPLE_BLOCK, _bin_edges, _binned_povm,
                                 _cell_probabilities, _likelihood_operator,
                                 _upper_triangle)
import catbreed.tomography as tomo
from conftest import random_density, reference_window_matrix


def bred_test_state(cutoff=FockCutoff(8)):
    photon = single_photon_state(0.87, 0.0, cutoff)
    return breed(photon, photon, AcceptanceWindow(0.3)).state


# ---------------------------------------------------------------------------
# datasets and phase folding

def test_dataset_folds_phases_into_half_turn():
    ds = HomodyneDataset(np.array([np.pi + 0.4, np.pi, 2 * np.pi + 0.1, -0.2]),
                         np.array([1.2, 0.7, 0.5, 0.9]))
    np.testing.assert_allclose(ds.thetas,
                               [0.4, 0.0, 0.1, np.pi - 0.2], atol=1e-12)
    np.testing.assert_allclose(ds.xs, [-1.2, -0.7, 0.5, -0.9], atol=1e-12)


def test_dataset_rejects_malformed_input():
    with pytest.raises(DomainError):
        HomodyneDataset(np.zeros(3), np.zeros(4))
    with pytest.raises(DomainError):
        HomodyneDataset(np.zeros(3), np.array([0.0, np.nan, 1.0]))


def test_dataset_unique_phases_and_concat():
    thetas = np.concatenate([np.full(5, 0.25), np.full(3, 0.75)])
    joined = HomodyneDataset(thetas, np.concatenate([np.arange(5.0),
                                                     np.arange(3.0)]))
    assert len(joined) == 8
    np.testing.assert_allclose(joined.unique_phases(), [0.25, 0.75])


# ---------------------------------------------------------------------------
# quadrature marginals

def test_marginal_pdf_vacuum_is_unit_variance_gaussian():
    vac = fock_state(0, FockCutoff(10)).to_density()
    pdf = marginal_pdf(vac, 0.0)
    xs = np.linspace(-3, 3, 13)
    np.testing.assert_allclose(pdf(xs), np.exp(-xs ** 2) / np.sqrt(np.pi),
                               atol=1e-12)
    # a number state has no phase reference
    np.testing.assert_allclose(marginal_pdf(vac, 0.7)(xs), pdf(xs), atol=1e-12)


def test_marginal_pdf_single_photon_law():
    one = fock_state(1, FockCutoff(10)).to_density()
    xs = np.linspace(-3, 3, 13)
    expected = 2.0 * xs ** 2 * np.exp(-xs ** 2) / np.sqrt(np.pi)
    np.testing.assert_allclose(marginal_pdf(one, 0.0)(xs), expected, atol=1e-12)


def test_marginal_pdf_matches_the_full_basis_sum():
    # the three-operand sum over the whole basis that the support-block
    # product replaced
    rho = pad_density_operator(random_density(np.random.default_rng(81), 7),
                               FockCutoff(30))
    xs = np.linspace(-7, 7, 57)
    psi = hermite_functions(30, xs)
    for theta in (0.0, 0.7, 2.6):
        rotated = rho.matrix * _phase_rotation(theta, rho.dimension)
        reference = np.real(np.einsum("mx,mn,nx->x", psi, rotated, psi))
        np.testing.assert_allclose(marginal_pdf(rho, theta)(xs), reference,
                                   rtol=0, atol=1e-15)


def test_marginal_window_mass_matches_conditioning_probability():
    cut = FockCutoff(20)
    one = fock_state(1, cut).to_density()
    joint = beam_splitter(one, one, 0.5)
    reduced = partial_trace(joint, "b")
    mass, _ = quad(marginal_pdf(reduced, 0.0), -0.3, 0.3)
    psi2_mass, _ = quad(lambda x: quadrature_wavefunction(2, x) ** 2, -0.3, 0.3)
    assert mass == pytest.approx(0.5 * (erf(0.3) + psi2_mass), abs=1e-9)


def test_marginal_pdf_of_bred_state_is_physical():
    rho = bred_test_state()
    pdf = marginal_pdf(rho, 0.0)
    xs = np.linspace(-6, 6, 241)
    vals = pdf(xs)
    np.testing.assert_allclose(vals, vals[::-1], atol=1e-10)
    assert vals.min() > -1e-10
    total, _ = quad(pdf, -12, 12, limit=200)
    assert total == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# synthetic sampling

def test_sample_homodyne_vacuum_moments():
    vac = fock_state(0, FockCutoff(6)).to_density()
    rng = np.random.default_rng(40)
    ds = sample_homodyne(vac, 0.0, 100000, rng)
    assert np.mean(ds.xs) == pytest.approx(0.0, abs=0.01)
    assert np.var(ds.xs) == pytest.approx(0.5, abs=0.01)


def test_sample_homodyne_squeezed_variance():
    cut = FockCutoff(30)
    amps = squeeze_matrix(3.64, cut) @ fock_state(0, cut).amplitudes
    rho = StateVector(amps, cut).to_density()
    rng = np.random.default_rng(41)
    ds = sample_homodyne(rho, 0.0, 100000, rng)
    assert np.var(ds.xs) == pytest.approx(0.5 * 10 ** (-0.364), abs=0.01)


def test_sample_homodyne_single_photon_node():
    one = fock_state(1, FockCutoff(6)).to_density()
    rng = np.random.default_rng(42)
    ds = sample_homodyne(one, 0.0, 100000, rng)
    assert np.mean(np.abs(ds.xs) < 0.05) < 0.001


def test_sample_homodyne_is_deterministic_per_seed():
    rho = bred_test_state()
    a = sample_homodyne(rho, 0.3, 500, np.random.default_rng(5))
    b = sample_homodyne(rho, 0.3, 500, np.random.default_rng(5))
    c = sample_homodyne(rho, 0.3, 500, np.random.default_rng(6))
    np.testing.assert_array_equal(a.xs, b.xs)
    assert not np.array_equal(a.xs, c.xs)


def test_sample_homodyne_rejects_empty_request():
    vac = fock_state(0, FockCutoff(6)).to_density()
    with pytest.raises(DomainError):
        sample_homodyne(vac, 0.0, 0, np.random.default_rng(0))


def test_sample_homodyne_rejects_non_finite_phase():
    vac = fock_state(0, FockCutoff(6)).to_density()
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for theta in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="homodyne phase"):
            sample_homodyne(vac, theta, 10, rng)
    # refused before anything was drawn
    assert rng.bit_generator.state == before
    # a phase list is checked whole before its first phase is sampled
    with pytest.raises(DomainError, match="homodyne phase"):
        sample_homodyne_phases(vac, [0.0, 1.0, np.nan], 30, rng)
    assert rng.bit_generator.state == before


def test_sample_homodyne_rejects_bad_phase_noise():
    vac = fock_state(0, FockCutoff(6)).to_density()
    for sigma in (-0.5, np.nan, np.inf):
        with pytest.raises(DomainError, match="phase noise sigma"):
            sample_homodyne(vac, 0.0, 10, np.random.default_rng(0),
                            phase_noise_sigma=sigma)
        with pytest.raises(DomainError, match="phase noise sigma"):
            sample_homodyne_phases(vac, uniform_phases(2), 10,
                                   np.random.default_rng(0), sigma)


def test_phase_noise_broadens_a_squeezed_quadrature():
    cut = FockCutoff(30)
    amps = squeeze_matrix(6.0, cut) @ fock_state(0, cut).amplitudes
    rho = StateVector(amps, cut).to_density()
    clean = sample_homodyne(rho, 0.0, 20000, np.random.default_rng(43))
    noisy = sample_homodyne(rho, 0.0, 20000, np.random.default_rng(43),
                            phase_noise_sigma=0.5)
    assert np.var(noisy.xs) > 2.0 * np.var(clean.xs)


def test_uniform_phases_cover_half_turn():
    phases = uniform_phases(12)
    np.testing.assert_allclose(phases, np.arange(12) * np.pi / 12)
    with pytest.raises(DomainError):
        uniform_phases(0)


def test_sample_homodyne_phases_splits_counts():
    vac = fock_state(0, FockCutoff(6)).to_density()
    ds = sample_homodyne_phases(vac, uniform_phases(4), 10,
                                np.random.default_rng(44))
    assert len(ds) == 10
    counts = [np.sum(np.isclose(ds.thetas, th)) for th in uniform_phases(4)]
    assert counts == [3, 3, 2, 2]
    with pytest.raises(DomainError):
        sample_homodyne_phases(vac, uniform_phases(4), 3,
                               np.random.default_rng(0))
    with pytest.raises(DomainError, match="at least one phase"):
        sample_homodyne_phases(vac, np.zeros(0), 10, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# maximum-likelihood reconstruction

def test_maxlik_recovers_vacuum():
    vac = fock_state(0, FockCutoff(4)).to_density()
    data = sample_homodyne_phases(vac, uniform_phases(4), 6000,
                                  np.random.default_rng(50))
    result = maxlik_reconstruct(data, FockCutoff(4))
    assert result.rho_hat.populations()[0] > 0.99
    assert result.stop_reason == "converged"
    assert result.final_likelihood_gain < 1e-10


def test_maxlik_likelihood_never_decreases():
    rho = bred_test_state()
    data = sample_homodyne_phases(rho, uniform_phases(8), 5000,
                                  np.random.default_rng(51))
    result = maxlik_reconstruct(data, FockCutoff(8))
    diffs = np.diff(result.likelihood_history)
    assert diffs.min() >= -1e-12


def test_maxlik_rejects_underdetermined_data():
    vac = fock_state(0, FockCutoff(12)).to_density()
    data = sample_homodyne(vac, 0.0, 10, np.random.default_rng(52))
    with pytest.raises(ConvergenceError):
        maxlik_reconstruct(data, FockCutoff(12))


def test_maxlik_rejects_unknown_efficiency_model():
    vac = fock_state(0, FockCutoff(4)).to_density()
    data = sample_homodyne(vac, 0.0, 100, np.random.default_rng(53))
    with pytest.raises(DomainError):
        maxlik_reconstruct(data, FockCutoff(4), efficiency_model="psychic")
    # efficiencies the model uses must lie in (0, 1]; above 1 the POVM
    # would go unsmeared and the fit would return the 'none' estimate
    bad = [{"efficiency_model": "detection", "eta_detection": 1.5},
           {"efficiency_model": "detection", "eta_detection": 0.0},
           {"efficiency_model": "detection+storage", "eta_detection": 0.9,
            "storage_transmission": 2.0},
           {"efficiency_model": "detection+storage", "eta_detection": -0.9,
            "storage_transmission": 0.5}]
    for kwargs in bad:
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\]"):
            maxlik_reconstruct(data, FockCutoff(4), **kwargs)


def test_maxlik_rejects_samples_outside_the_binned_span():
    vac = fock_state(0, FockCutoff(4)).to_density()
    data = sample_homodyne(vac, 0.0, 600, np.random.default_rng(53))
    xs = data.xs.copy()
    xs[:100] = 50.0
    with pytest.raises(DomainError, match="100 of 600 samples"):
        maxlik_reconstruct(HomodyneDataset(data.thetas, xs), FockCutoff(4))
    # the span's own edges are inside it
    xs[:100] = 12.0
    xs[100] = -12.0
    maxlik_reconstruct(HomodyneDataset(data.thetas, xs), FockCutoff(4))


def test_maxlik_rejects_iteration_cap_below_one():
    vac = fock_state(0, FockCutoff(4)).to_density()
    data = sample_homodyne(vac, 0.0, 100, np.random.default_rng(54))
    for max_iter in (0, -3):
        with pytest.raises(DomainError, match="max_iter must be >= 1"):
            maxlik_reconstruct(data, FockCutoff(4), max_iter=max_iter)
    # one iteration evaluates the likelihood once and stops at the cap
    result = maxlik_reconstruct(data, FockCutoff(4), max_iter=1)
    assert result.iterations == 1
    assert len(result.likelihood_history) == 1
    assert result.stop_reason == "max_iterations"


def test_maxlik_rejects_nan_and_infinite_tolerance():
    # a NaN gain test never fires and +inf fires at once; both are refused
    # before any work (this dataset is also too small to fit). -inf, which
    # runs to max_iter, stays valid
    vac = fock_state(0, FockCutoff(12)).to_density()
    data = sample_homodyne(vac, 0.0, 10, np.random.default_rng(54))
    for tol in (np.nan, np.inf):
        with pytest.raises(DomainError, match="tol_per_sample must be a number"):
            maxlik_reconstruct(data, FockCutoff(12), tol_per_sample=tol)


def test_maxlik_detection_correction_round_trip():
    # degrade the state exactly as the lossy detector would, then ask the
    # corrected reconstruction for the state before the detector
    truth = bred_test_state(FockCutoff(8))
    seen = loss_channel(truth, 0.76)
    data = sample_homodyne_phases(seen, uniform_phases(8), 20000,
                                  np.random.default_rng(54))
    result = maxlik_reconstruct(data, FockCutoff(8),
                                efficiency_model="detection")
    assert fidelity(result.rho_hat, truth) > 0.97


def test_maxlik_composed_correction_round_trip():
    truth = bred_test_state(FockCutoff(8))
    seen = loss_channel(truth, 0.76 * 0.841)
    data = sample_homodyne_phases(seen, uniform_phases(8), 30000,
                                  np.random.default_rng(55))
    result = maxlik_reconstruct(data, FockCutoff(8),
                                efficiency_model="detection+storage")
    assert fidelity(result.rho_hat, truth) > 0.95


def test_maxlik_estimate_is_phase_covariant():
    # shifting every recorded phase by delta must rotate the estimate by
    # the number operator, exactly
    rho = bred_test_state(FockCutoff(8))
    data = sample_homodyne_phases(rho, uniform_phases(8), 20000,
                                  np.random.default_rng(56))
    delta = 0.37
    shifted = HomodyneDataset(data.thetas + delta, data.xs)
    base = maxlik_reconstruct(data, FockCutoff(8)).rho_hat
    moved = maxlik_reconstruct(shifted, FockCutoff(8)).rho_hat
    n = np.arange(9)
    R = np.diag(np.exp(-1j * delta * n))
    conjugated = R @ base.matrix @ R.conj().T
    np.testing.assert_allclose(moved.matrix, conjugated, atol=1e-8)


def full_windows(d, eta):
    """The (n_bins, d, d) window matrices whose upper triangles
    _binned_povm holds."""
    rows, cols, _ = _upper_triangle(d)
    upper = _binned_povm(d, eta)
    windows = np.empty((len(upper), d, d))
    windows[:, rows, cols] = upper
    windows[:, cols, rows] = upper
    return windows


def test_binned_povm_resolves_identity():
    d = 13
    for eta in (1.0, 0.76):
        windows = full_windows(d, eta)
        for theta in (0.0, 0.5, 1.1):
            total = (windows * _phase_rotation(theta, d)).sum(axis=0)
            np.testing.assert_allclose(total, np.eye(d), atol=1e-8)


def test_binned_povm_peak_memory_is_about_its_output():
    # the edges are walked one at a time: beyond the returned triangles
    # only a few d x d matrices are live (stacking every edge's
    # antiderivative at once would peak at about 14x the output)
    _upper_triangle(61)
    gc.collect()
    tracemalloc.start()
    try:
        windows = _binned_povm.__wrapped__(61, 0.76)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * windows.nbytes


def test_factored_kernel_matches_dense_povm_stack():
    # the kernel never forms the (n_phases * n_bins, d, d) POVM stack and
    # reads only the upper triangles of W_b, rot_k and rho; build that
    # stack here from the quadrature oracle and contract it directly, for
    # a stack of two states. The kernel reads the oracle's own triangles:
    # the closed-form bins differ from the oracle's by round-off (measured
    # 7.3e-16), which 606 weighted cells would add up past the kernel's
    # 1e-14, so _binned_povm is held to the oracle on its own
    d = 13
    rng = np.random.default_rng(57)
    a = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
    rho = (a + a.conj().swapaxes(1, 2)) / 2.0
    phases = (0.0, 0.5, 1.1)
    rows, cols, _ = _upper_triangle(d)
    rotations = np.stack([_phase_rotation(t, d)[rows, cols] for t in phases])
    edges = _bin_edges()
    for eta in (1.0, 0.76):
        base = np.stack([
            _smear_povm(np.array(reference_window_matrix(d, lo, hi),
                                 dtype=complex), eta)
            for lo, hi in zip(edges[:-1], edges[1:])])
        stack = np.concatenate([base * _phase_rotation(t, d) for t in phases])
        windows = base.real[:, rows, cols]
        np.testing.assert_allclose(_binned_povm(d, eta), windows, rtol=0,
                                   atol=2e-15)

        probs = _cell_probabilities(rho, windows, rotations)
        assert probs.shape == (2, len(phases), len(edges) - 1)
        dense = np.real(np.einsum("jmn,inm->ij", stack, rho))
        np.testing.assert_allclose(probs.reshape(2, -1), dense, rtol=0,
                                   atol=1e-14)

        weights = rng.normal(size=probs.shape)
        R = _likelihood_operator(weights, windows, rotations)
        dense = np.einsum("ij,jmn->imn", weights.reshape(2, -1), stack)
        np.testing.assert_allclose(R, dense, rtol=0, atol=1e-14)


def test_maxlik_gap_bound_certifies_the_remaining_gain():
    rho = bred_test_state()
    data = sample_homodyne_phases(rho, uniform_phases(8), 3000,
                                  np.random.default_rng(58))
    for max_iter in (2000, 30):
        short = maxlik_reconstruct(data, FockCutoff(8), max_iter=max_iter)
        assert short.gap_bound >= -1e-12
        # a converged fit returns the estimate of its last history entry; a
        # capped one returns the estimate one update further on
        at = short.iterations - (short.stop_reason == "converged")
        # the fit is deterministic, so a longer one passes through the same
        # estimate and then runs 2000 more iterations from it
        longer = maxlik_reconstruct(data, FockCutoff(8),
                                    max_iter=at + 2001,
                                    tol_per_sample=-np.inf)
        assert (longer.likelihood_history[:short.iterations]
                == short.likelihood_history)
        gained = longer.likelihood_history[-1] - longer.likelihood_history[at]
        assert 0.0 < gained <= short.gap_bound


def test_maxlik_error_shrinks_with_sample_size():
    truth = bred_test_state(FockCutoff(12))
    errs = {}
    for n in (1000, 10000, 100000):
        vals = []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            data = sample_homodyne_phases(truth, uniform_phases(8), n, rng)
            result = maxlik_reconstruct(data, FockCutoff(8))
            padded = pad_density_operator(result.rho_hat, FockCutoff(12))
            vals.append(1.0 - fidelity(padded, truth))
        errs[n] = float(np.mean(vals))
    assert errs[1000] > errs[10000] > errs[100000]
    assert errs[100000] < 0.01


# ---------------------------------------------------------------------------
# bootstrap

def test_bootstrap_of_invariant_statistic_has_zero_spread():
    vac = fock_state(0, FockCutoff(4)).to_density()
    data = sample_homodyne_phases(vac, uniform_phases(4), 1000,
                                  np.random.default_rng(60))
    result = bootstrap(data, 50, lambda r: float(np.real(np.trace(r.rho_hat.matrix))),
                       np.random.default_rng(61), cutoff=FockCutoff(4))
    assert result.mean == pytest.approx(1.0, abs=1e-12)
    assert result.std < 1e-12
    assert result.n_failed == 0


def test_bootstrap_is_deterministic_under_master_seed():
    vac = fock_state(0, FockCutoff(4)).to_density()
    data = sample_homodyne_phases(vac, uniform_phases(4), 800,
                                  np.random.default_rng(62))
    stat = {"p0": lambda r: float(r.rho_hat.populations()[0])}
    a = bootstrap_many(data, 50, stat, np.random.default_rng(7),
                       cutoff=FockCutoff(4))
    b = bootstrap_many(data, 50, stat, np.random.default_rng(7),
                       cutoff=FockCutoff(4))
    assert a["p0"].values == b["p0"].values


def test_bootstrap_many_shares_resamples_across_statistics():
    vac = fock_state(0, FockCutoff(4)).to_density()
    data = sample_homodyne_phases(vac, uniform_phases(4), 800,
                                  np.random.default_rng(63))
    stats = {
        "p0": lambda r: float(r.rho_hat.populations()[0]),
        "one_minus_p0": lambda r: 1.0 - float(r.rho_hat.populations()[0]),
    }
    results = bootstrap_many(data, 50, stats, np.random.default_rng(8),
                             cutoff=FockCutoff(4))
    paired = np.array(results["p0"].values) + np.array(
        results["one_minus_p0"].values)
    np.testing.assert_allclose(paired, 1.0, atol=1e-12)


def test_bootstrap_interval_covers_known_population():
    covered = 0
    truth = single_photon_state(0.87, 0.0, FockCutoff(4))
    for exp in range(10):
        rng = np.random.default_rng(200 + exp)
        data = sample_homodyne_phases(truth, uniform_phases(4), 1500, rng)
        result = bootstrap(data, 50,
                           lambda r: float(r.rho_hat.populations()[1]),
                           np.random.default_rng(300 + exp),
                           cutoff=FockCutoff(4))
        covered += result.ci_low <= 0.87 <= result.ci_high
    assert covered >= 8


def test_bootstrap_interval_narrows_with_sample_size():
    vac = fock_state(0, FockCutoff(4)).to_density()
    widths = []
    for n in (4000, 8000):
        data = sample_homodyne_phases(vac, uniform_phases(4), n,
                                      np.random.default_rng(42))
        result = bootstrap(data, 100,
                           lambda r: float(r.rho_hat.populations()[0]),
                           np.random.default_rng(43), cutoff=FockCutoff(4))
        widths.append(result.ci_high - result.ci_low)
    ratio = widths[1] / widths[0]
    assert 0.55 < ratio < 0.85


def test_bootstrap_rejects_tiny_resample_counts():
    vac = fock_state(0, FockCutoff(4)).to_density()
    data = sample_homodyne_phases(vac, uniform_phases(4), 500,
                                  np.random.default_rng(64))
    with pytest.raises(DomainError):
        bootstrap(data, 10, lambda r: 1.0, np.random.default_rng(0),
                  cutoff=FockCutoff(4))
    with pytest.raises(DomainError):
        bootstrap_many(data, 50, {}, np.random.default_rng(0),
                       cutoff=FockCutoff(4))


def test_bootstrap_tolerates_rare_failures(monkeypatch):
    vac = fock_state(0, FockCutoff(4)).to_density()
    data = sample_homodyne_phases(vac, uniform_phases(4), 500,
                                  np.random.default_rng(65))
    real = tomo._fit_result
    calls = {"n": 0}

    # every finished resample fit becomes a result through _fit_result
    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] % 20 == 0:
            raise ConvergenceError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(tomo, "_fit_result", flaky)
    result = bootstrap(data, 60, lambda r: float(r.rho_hat.populations()[0]),
                       np.random.default_rng(9), cutoff=FockCutoff(4))
    assert calls["n"] == 60
    assert result.n_failed == 3
    assert len(result.values) == 57


def test_bootstrap_raises_when_failures_dominate(monkeypatch):
    vac = fock_state(0, FockCutoff(4)).to_density()
    data = sample_homodyne_phases(vac, uniform_phases(4), 500,
                                  np.random.default_rng(66))
    real = tomo._fit_result
    calls = {"n": 0}

    # every finished resample fit becomes a result through _fit_result
    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] % 5 == 0:
            raise ConvergenceError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(tomo, "_fit_result", flaky)
    with pytest.raises(ConvergenceError):
        bootstrap(data, 60, lambda r: float(r.rho_hat.populations()[0]),
                  np.random.default_rng(10), cutoff=FockCutoff(4))


def serial_bootstrap(data, n_resamples, statistics, rng, **reconstruct_kwargs):
    """The per-resample loop that bootstrap_many replaced: a new dataset and
    one maxlik_reconstruct call per resample, statistic values in resample
    order."""
    values = {name: [] for name in statistics}
    n = len(data)
    for stream in rng.spawn(n_resamples):
        idx = stream.integers(0, n, size=n)
        result = maxlik_reconstruct(HomodyneDataset(data.thetas[idx],
                                                    data.xs[idx]),
                                    **reconstruct_kwargs)
        for name, statistic in statistics.items():
            values[name].append(float(statistic(result)))
    return values


ORACLE_STATISTICS = {
    "iterations": lambda r: r.iterations,
    "converged": lambda r: r.stop_reason == "converged",
    "final_gain": lambda r: r.final_likelihood_gain,
    "final_likelihood": lambda r: r.likelihood_history[-1],
    "gap_bound": lambda r: r.gap_bound,
    "p0": lambda r: float(r.rho_hat.populations()[0]),
    "p1": lambda r: float(r.rho_hat.populations()[1]),
    "coherence_01": lambda r: float(abs(r.rho_hat.matrix[0, 1])),
}


@pytest.mark.parametrize("case", ["53_resamples", "lost_phase",
                                  "capped_detection_storage", "no_tolerance"])
def test_bootstrap_many_matches_the_per_resample_loop(case):
    truth = single_photon_state(0.87, 0.0, FockCutoff(4))
    data = sample_homodyne_phases(truth, uniform_phases(4), 400,
                                  np.random.default_rng(67))
    n_resamples = 50
    kwargs = {"cutoff": FockCutoff(4)}
    if case == "53_resamples":
        n_resamples = 53
        assert n_resamples % RESAMPLE_BLOCK
    elif case == "lost_phase":
        # two of the 400 samples sit at a fifth phase, which about one
        # resample in seven does not draw
        data = HomodyneDataset(np.concatenate([data.thetas[:398], [2.0, 2.0]]),
                               data.xs)
        lost = [not np.any(data.thetas[s.integers(0, 400, size=400)] == 2.0)
                for s in np.random.default_rng(11).spawn(n_resamples)]
        assert 0 < sum(lost) < n_resamples
    elif case == "capped_detection_storage":
        kwargs.update(efficiency_model="detection+storage", max_iter=40)
    else:
        kwargs.update(max_iter=30, tol_per_sample=-np.inf)

    want = serial_bootstrap(data, n_resamples, ORACLE_STATISTICS,
                            np.random.default_rng(11), **kwargs)
    got = bootstrap_many(data, n_resamples, ORACLE_STATISTICS,
                         np.random.default_rng(11), **kwargs)
    assert got["iterations"].values == tuple(want["iterations"])
    assert got["converged"].values == tuple(want["converged"])
    if case in ("capped_detection_storage", "no_tolerance"):
        assert not any(want["converged"])
        assert set(want["iterations"]) == {kwargs["max_iter"]}
    for name, vals in want.items():
        arr = np.array(vals)
        lo, hi = np.percentile(arr, [2.5, 97.5])
        result = got[name]
        assert result.n_resamples == n_resamples and result.n_failed == 0
        np.testing.assert_allclose(result.values, arr, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            [result.mean, result.std, result.ci_low, result.ci_high],
            [arr.mean(), arr.std(ddof=1), lo, hi], rtol=0, atol=1e-12)


def test_bootstrap_memory_does_not_grow_with_resamples():
    # resamples are fitted block by block, so the traced peak stays that of
    # a block and its statistic values, whatever the resample count
    vac = fock_state(0, FockCutoff(4)).to_density()
    data = sample_homodyne_phases(vac, uniform_phases(4), 2000,
                                  np.random.default_rng(68))
    stat = {"p0": lambda r: float(r.rho_hat.populations()[0])}
    peaks = {}
    # the first call fills the window-matrix cache
    for n_resamples in (50, 50, 400):
        gc.collect()
        tracemalloc.start()
        try:
            bootstrap_many(data, n_resamples, stat, np.random.default_rng(12),
                           cutoff=FockCutoff(4), max_iter=20)
            peaks[n_resamples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # fitting every resample at once would make this about 8
    assert peaks[400] < 2.0 * peaks[50]


# ---------------------------------------------------------------------------
# file formats

def reference_dataset_csv(data, path):
    """The per-cell dataset writer that the table writer replaced."""
    with open(path, "w") as fh:
        fh.write("theta,x\n")
        for th, x in zip(data.thetas, data.xs):
            fh.write(f"{th:.12g},{x:.12g}\n")


def reference_density_csv(rho, path):
    """The per-cell density-matrix writer that the table writer replaced."""
    d = rho.dimension
    header = ",".join(f"re_{n},im_{n}" for n in range(d))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rho.matrix:
            cells = []
            for val in row:
                cells.append(f"{val.real:.12g}")
                cells.append(f"{val.imag:.12g}")
            fh.write(",".join(cells) + "\n")


def test_table_writers_match_the_per_cell_oracle(tmp_path):
    mat = random_density(np.random.default_rng(72), 5).matrix.copy()
    mat[0, 1] = complex(-0.0, 1e-300)
    mat[2, 3] = complex(0.123456789012345, -1.0 / 3.0)
    rho = DensityOperator(mat, FockCutoff(4))
    data = sample_homodyne_phases(bred_test_state(), uniform_phases(3), 90,
                                  np.random.default_rng(73))
    table, reference = tmp_path / "table.csv", tmp_path / "reference.csv"
    for write, write_reference, obj in [
            (write_density_csv, reference_density_csv, rho),
            (save_dataset_csv, reference_dataset_csv, data)]:
        write(obj, table)
        write_reference(obj, reference)
        assert table.read_bytes() == reference.read_bytes(), write.__name__
    # the density matrix holds a negative zero, a tiny value and values
    # printed at 12 significant digits
    write_density_csv(rho, table)
    rows = [line.split(",") for line in table.read_text().splitlines()]
    assert rows[1][2:4] == ["-0", "1e-300"]
    assert rows[3][6:8] == ["0.123456789012", "-0.333333333333"]


def test_dataset_csv_round_trip(tmp_path):
    vac = fock_state(0, FockCutoff(4)).to_density()
    ds = sample_homodyne_phases(vac, uniform_phases(3), 50,
                                np.random.default_rng(70))
    path = tmp_path / "data.csv"
    save_dataset_csv(ds, path)
    back = load_dataset_csv(path)
    np.testing.assert_allclose(back.thetas, ds.thetas, atol=1e-10)
    np.testing.assert_allclose(back.xs, ds.xs, atol=1e-10)


def test_dataset_csv_rejects_bad_files(tmp_path):
    with pytest.raises(ConfigError):
        load_dataset_csv(tmp_path / "missing.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("x,theta\n0.0,0.1\n")
    with pytest.raises(ConfigError):
        load_dataset_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("theta,x\n")
    # refused as a ConfigError, not first announced by a loadtxt warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="empty"):
            load_dataset_csv(empty)


def test_density_csv_round_trip(tmp_path):
    rng = np.random.default_rng(71)
    rho = random_density(rng, 6)
    path = tmp_path / "rho.csv"
    write_density_csv(rho, path)
    back = read_density_csv(path)
    assert back.cutoff == rho.cutoff
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-9)


def test_density_csv_rejects_bad_files(tmp_path):
    with pytest.raises(ConfigError):
        read_density_csv(tmp_path / "missing.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("re_0,im_0,re_1\n1,0,0\n")
    with pytest.raises(ConfigError):
        read_density_csv(bad)
    short = tmp_path / "short.csv"
    short.write_text("re_0,im_0,re_1,im_1\n1,0,0,0\n")
    with pytest.raises(ConfigError):
        read_density_csv(short)
    empty = tmp_path / "empty.csv"
    empty.write_text("re_0,im_0,re_1,im_1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="empty"):
            read_density_csv(empty)


def test_meta_round_trip(tmp_path):
    path = tmp_path / "state.meta"
    write_meta(path, {"herald_probability": 0.2245, "stage": "creation"})
    back = read_meta(path)
    assert back["stage"] == "creation"
    assert float(back["herald_probability"]) == pytest.approx(0.2245)
