import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import comb, erf

from catbreed import (DEFAULT_PER_TRIP_TRANSMISSION, AcceptanceWindow,
                      DensityOperator, DomainError, FockCutoff, HeraldImpossibleError,
                      TwoModeState, beam_splitter, breed, coherent_state,
                      condition, fidelity, fidelity_to_pure, fock_state,
                      hermite_functions, homodyne_povm, loss_channel,
                      partial_trace, quadrature_wavefunction,
                      single_photon_state, storage_evolve)
from catbreed.fock import MAX_CUTOFF, StateVector, _log_factorial
from catbreed.optics import (_beam_splitter_blocks, _beam_splitter_unitary, _breed,
                             _lose, _lose_populations, _loss_amplitudes, _loss_table,
                             _window_matrix)
from conftest import (random_density, random_pure, reference_window_matrix,
                      smear_povm)

CUT = FockCutoff(20)
WINDOW = AcceptanceWindow(0.3)


def ideal_bred_state(cutoff: FockCutoff) -> StateVector:
    amps = np.zeros(cutoff.dimension, dtype=complex)
    amps[0] = -1.0 / np.sqrt(3.0)
    amps[2] = np.sqrt(2.0 / 3.0)
    return StateVector(amps, cutoff)


def window_mass(n: int, half_width: float) -> float:
    """Independent oracle: int |psi_n|^2 over the acceptance window."""
    val, _ = quad(lambda x: quadrature_wavefunction(n, x) ** 2,
                  -half_width, half_width)
    return val


# ---------------------------------------------------------------------------
# beam splitter

def test_two_photons_coalesce_on_balanced_splitter():
    one = fock_state(1, CUT).to_density()
    joint = beam_splitter(one, one, 0.5)
    d = CUT.dimension
    # no photons ever exit one-and-one
    assert abs(joint.matrix[1 * d + 1, 1 * d + 1]) < 1e-10

    noon = np.zeros(d * d, dtype=complex)
    noon[2 * d + 0] = 1.0 / np.sqrt(2)
    noon[0 * d + 2] = 1.0 / np.sqrt(2)
    np.testing.assert_allclose(joint.matrix, np.outer(noon, noon.conj()),
                               atol=1e-10)


def test_full_transmittance_keeps_product_state():
    rng = np.random.default_rng(10)
    a = random_density(rng, CUT.dimension)
    b = random_density(rng, CUT.dimension)
    joint = beam_splitter(a, b, 1.0)
    np.testing.assert_allclose(joint.matrix, np.kron(a.matrix, b.matrix),
                               atol=1e-12)


def test_single_photon_splits_evenly():
    one = fock_state(1, CUT).to_density()
    vac = fock_state(0, CUT).to_density()
    joint = beam_splitter(one, vac, 0.5)
    for keep in ("a", "b"):
        reduced = partial_trace(joint, keep)
        pops = reduced.populations()
        assert pops[0] == pytest.approx(0.5, abs=1e-10)
        assert pops[1] == pytest.approx(0.5, abs=1e-10)


def test_beam_splitter_conserves_total_photon_number():
    rng = np.random.default_rng(11)
    d = 12
    cut = FockCutoff(d - 1)
    n_flat = (np.arange(d)[:, None] + np.arange(d)[None, :]).ravel()
    for _ in range(8):
        a = StateVector(random_pure(rng, d, support=5), cut).to_density()
        b = StateVector(random_pure(rng, d, support=5), cut).to_density()
        t = rng.uniform(0.0, 1.0)
        joint = beam_splitter(a, b, t, phase=rng.uniform(0, 2 * np.pi))
        before = np.sum(n_flat * np.diag(np.kron(a.matrix, b.matrix)).real)
        after = np.sum(n_flat * np.diag(joint.matrix).real)
        assert after == pytest.approx(before, abs=1e-8)


def test_double_pass_is_phased_swap_on_complete_sectors():
    d = 8
    U2 = _beam_splitter_unitary(d, np.pi / 2, 0.0)
    for n in range(d):
        for m in range(d - n):
            col = U2[:, n * d + m]
            expected = np.zeros(d * d, dtype=complex)
            expected[m * d + n] = (-1j) ** (n + m)
            np.testing.assert_allclose(col, expected, atol=1e-8)


@pytest.mark.parametrize("d", [3, 21, 41, 81])
@pytest.mark.parametrize("theta,phase", [(np.pi / 4, 0.0), (0.3, 1.1)])
def test_beam_splitter_blocks_match_scipy_expm(d, theta, phase):
    blocks = list(_beam_splitter_blocks(d, theta, phase))
    # the sectors partition the two-mode basis
    flat = np.sort(np.concatenate([idx for idx, _ in blocks]))
    assert np.array_equal(flat, np.arange(d * d))
    for idx, block in blocks:
        n_a, n_b = idx // d, idx % d
        assert np.all(n_a + n_b == n_a[0] + n_b[0])
        # a^dag b maps |n_a, n_b> to sqrt((n_a + 1) n_b) |n_a + 1, n_b - 1>
        gen = np.zeros((len(idx), len(idx)), dtype=complex)
        for i in range(len(idx) - 1):
            amp = np.sqrt((n_a[i] + 1.0) * n_b[i])
            gen[i + 1, i] = np.exp(1j * phase) * amp
            gen[i, i + 1] = np.exp(-1j * phase) * amp
        reference = expm(-1j * theta * gen)
        assert np.max(np.abs(block - reference)) <= 1e-13


def test_beam_splitter_cache_retains_at_most_four_unitaries():
    # each distinct transmittance builds a dense (d^2, d^2) unitary; what 16 of
    # them leave behind is bounded by the cache's four entries, not by the calls
    photon = single_photon_state(cutoff=CUT)
    unitary = CUT.dimension ** 4 * 16
    _beam_splitter_unitary.cache_clear()
    tracemalloc.start()
    try:
        for t in np.linspace(0.05, 0.95, 16):
            beam_splitter(photon, photon, float(t))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _beam_splitter_unitary.cache_info().currsize == 4
    _beam_splitter_unitary.cache_clear()
    assert 4 * unitary <= retained < 4.5 * unitary


def test_beam_splitter_rejects_bad_inputs():
    one = fock_state(1, CUT).to_density()
    with pytest.raises(DomainError):
        beam_splitter(one, one, 1.2)
    other = fock_state(1, FockCutoff(5)).to_density()
    with pytest.raises(DomainError):
        beam_splitter(one, other, 0.5)


def test_two_mode_index_convention():
    d = CUT.dimension
    joint = beam_splitter(fock_state(1, CUT).to_density(),
                          fock_state(2, CUT).to_density(), 1.0)
    assert joint.matrix[1 * d + 2, 1 * d + 2] == pytest.approx(1.0, abs=1e-12)


def test_two_mode_state_validation():
    d = CUT.dimension
    mat = np.zeros((d * d, d * d), dtype=complex)
    mat[0, 0] = 1.0
    TwoModeState(mat, CUT).validate()
    bad = mat.copy()
    bad[0, 0] = 2.0
    with pytest.raises(DomainError):
        TwoModeState(bad, CUT).validate()
    with pytest.raises(DomainError):
        TwoModeState(np.eye(d), CUT)


def test_partial_trace_recovers_marginals():
    rng = np.random.default_rng(12)
    cut = FockCutoff(5)
    a = random_density(rng, cut.dimension)
    b = random_density(rng, cut.dimension)
    joint = TwoModeState(np.kron(a.matrix, b.matrix), cut)
    np.testing.assert_allclose(partial_trace(joint, "a").matrix, a.matrix,
                               atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, "b").matrix, b.matrix,
                               atol=1e-12)
    with pytest.raises(DomainError):
        partial_trace(joint, "c")


# ---------------------------------------------------------------------------
# loss channel

def test_loss_single_photon_closed_form():
    one = fock_state(1, CUT).to_density()
    out = loss_channel(one, 0.7)
    pops = out.populations()
    assert pops[1] == pytest.approx(0.7, abs=1e-12)
    assert pops[0] == pytest.approx(0.3, abs=1e-12)


def test_loss_coherent_state_closed_form():
    # independent route: loss shrinks a coherent amplitude by sqrt(eta)
    cut = FockCutoff(20)
    alpha, eta = 1.2, 0.6
    out = loss_channel(coherent_state(alpha, cut).to_density(), eta)
    shrunk = coherent_state(np.sqrt(eta) * alpha, cut)
    assert fidelity_to_pure(out, shrunk) == pytest.approx(1.0, abs=1e-9)


def test_loss_identity_and_vacuum_limits():
    rng = np.random.default_rng(13)
    rho = random_density(rng, 8)
    np.testing.assert_allclose(loss_channel(rho, 1.0).matrix, rho.matrix)
    vac = loss_channel(rho, 0.0)
    assert vac.populations()[0] == pytest.approx(1.0, abs=1e-12)


def test_stacked_loss_is_each_loss_and_exact_at_the_edges():
    # one stacked call at several transmissions is each single call, bit for
    # bit; transmission 1 is exactly the identity and 0 exactly the vacuum
    rng = np.random.default_rng(18)
    rho = random_density(rng, 8)
    etas = [1.0, 0.0, 0.37, 1.0 - 1e-12, 1e-300]
    stack = _lose(rho.matrix, etas)
    assert stack.shape == (len(etas), 8, 8)
    for eta, got in zip(etas, stack):
        assert np.array_equal(got, loss_channel(rho, eta).matrix)
    assert np.array_equal(stack[0], rho.matrix)
    assert np.count_nonzero(stack[1]) == 1
    assert stack[1][0, 0] == pytest.approx(1.0, abs=1e-12)
    # a stack of states at one transmission is each state's loss
    states = [random_density(rng, 8).matrix for _ in range(3)]
    for got, one in zip(_lose(np.stack(states), 0.64), states):
        assert np.array_equal(got, loss_channel(DensityOperator(one, rho.cutoff), 0.64).matrix)
    with pytest.raises(DomainError):
        _lose(rho.matrix, [0.5, 1.1])


@pytest.mark.parametrize("s, photon_fidelity, w2", [
    (2, 0.87, 0.0), (2, 1.0, 0.0), (2, 0.0, 0.0), (3, 0.87, 0.05), (3, 0.0, 0.3)])
def test_population_loss_is_the_real_diagonal_of_the_loss_bit_for_bit(s, photon_fidelity, w2):
    # the storage window loses the held photon as its s populations; every
    # value equals the real diagonal of _lose on the photon's s x s block, at
    # the edge transmissions and on a 500-gap stack, also where the photon's
    # support is narrower than s
    block = single_photon_state(photon_fidelity, w2, CUT).matrix[:s, :s]
    gaps = [DEFAULT_PER_TRIP_TRANSMISSION ** n for n in range(1, 501)]
    for transmission in (0.0, 0.37, 1.0, gaps):
        want = np.diagonal(_lose(block, transmission), axis1=-2, axis2=-1).real
        got = _lose_populations(np.diagonal(block).real, transmission)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_loss_semigroup_and_commutation():
    rng = np.random.default_rng(14)
    rho = random_density(rng, 10)
    ab = loss_channel(loss_channel(rho, 0.83), 0.64)
    ba = loss_channel(loss_channel(rho, 0.64), 0.83)
    once = loss_channel(rho, 0.83 * 0.64)
    np.testing.assert_allclose(ab.matrix, once.matrix, atol=1e-10)
    np.testing.assert_allclose(ab.matrix, ba.matrix, atol=1e-10)


def test_loss_preserves_trace_and_positivity():
    rng = np.random.default_rng(15)
    for _ in range(5):
        rho = random_density(rng, 9)
        out = loss_channel(rho, rng.uniform(0.05, 0.95))
        out.validate()


@pytest.mark.parametrize("d", [5, 21, 41])
def test_loss_map_matches_kraus_sum(d):
    # oracle: the Kraus operators A_k|n> = sqrt(C(n,k) eta^(n-k) (1-eta)^k)|n-k>
    # as dense matrices, applied as sum_k A_k rho A_k^dag and sum_k A_k^dag Pi A_k;
    # its amplitudes come from comb, not the log domain, so the two agree to
    # round-off (at most 1e-15 at d = 41), not bit for bit
    rho = random_density(np.random.default_rng(d), d)
    pi = homodyne_povm(WINDOW, FockCutoff(d - 1))
    n = np.arange(d)
    for eta in (0.0, 0.37, 0.76, 0.841):
        kraus = []
        for k in range(d):
            A = np.zeros((d, d), dtype=complex)
            A[n[k:] - k, n[k:]] = np.sqrt(comb(n[k:], k) * eta ** (n[k:] - k)
                                          * (1 - eta) ** k)
            kraus.append(A)
        lossy = sum(A @ rho.matrix @ A.conj().T for A in kraus)
        smeared = sum(A.conj().T @ pi @ A for A in kraus)
        np.testing.assert_allclose(loss_channel(rho, eta).matrix, lossy,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(smear_povm(pi, eta), smeared,
                                   rtol=0, atol=1e-14)


def test_loss_rejects_out_of_range_transmission():
    rho = fock_state(0, CUT).to_density()
    with pytest.raises(DomainError):
        loss_channel(rho, -0.1)
    with pytest.raises(DomainError):
        loss_channel(rho, 1.1)


# ---------------------------------------------------------------------------
# windowed homodyne POVM

def test_wide_window_povm_is_identity():
    # psi_n spreads to about sqrt(2n + 1), past a fixed integration span at
    # large cutoffs; the exact integrals reach the identity at every cutoff
    for n_max in (15, 60, 80, 100, 500):
        for eps in (50.0, np.inf):
            pi = homodyne_povm(AcceptanceWindow(eps), FockCutoff(n_max))
            np.testing.assert_allclose(pi, np.eye(n_max + 1), rtol=0,
                                       atol=1e-15)


# narrow, MaxLik-bin-sized, tail, asymmetric and full-span windows
ORACLE_WINDOWS = ((-0.3, 0.3), (-0.15, 0.15), (0.0, 0.06), (-6.0, -5.94),
                  (2.04, 2.1), (6.0, 12.0), (-1.0, 2.5), (-12.0, 12.0))


@pytest.mark.parametrize("dimension", [2, 3, 5, 13, 21, 41, 61, 81, 101, 121])
def test_window_matrix_matches_gauss_legendre_oracle(dimension):
    # measured worst 3.3e-15, at dimension 121 on the full span
    for lo, hi in ORACLE_WINDOWS:
        np.testing.assert_allclose(_window_matrix(dimension, lo, hi),
                                   reference_window_matrix(dimension, lo, hi),
                                   rtol=0, atol=1e-14)


# asked for 1e-14, quad flags round-off on a few smooth integrands while
# landing within 3e-16 of the closed form there
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("m, n", [(0, 0), (3, 7), (20, 41), (60, 61),
                                  (100, 100), (199, 200), (200, 200)])
def test_window_matrix_matches_adaptive_quadrature(m, n):
    # measured worst 4.2e-15, at (200, 200) on the full span
    pi = {window: _window_matrix(201, *window)
          for window in ((-0.3, 0.3), (6.0, 12.0), (-1.0, 2.5), (-12.0, 12.0))}
    for (lo, hi), mat in pi.items():
        val, _ = quad(lambda x: hermite_functions(max(m, n), x)[[m, n]].prod(),
                      lo, hi, limit=200, epsabs=1e-14, epsrel=0)
        assert mat[m, n] == pytest.approx(val, rel=0, abs=1e-14)
        assert mat[n, m] == mat[m, n]


def test_povm_vacuum_element_is_gaussian_mass():
    pi = homodyne_povm(WINDOW, CUT)
    assert pi[0, 0].real == pytest.approx(erf(0.3), abs=1e-10)


def test_povm_two_photon_element_matches_quadrature_integral():
    pi = homodyne_povm(WINDOW, CUT)
    assert pi[2, 2].real == pytest.approx(window_mass(2, 0.3), abs=1e-10)


def test_povm_is_positive_and_below_identity():
    for eps in (0.1, 0.3, 1.0, 3.0):
        pi = homodyne_povm(AcceptanceWindow(eps), FockCutoff(15),
                           detector_efficiency=0.76)
        vals = np.linalg.eigvalsh((pi + pi.conj().T) / 2)
        assert vals.min() > -1e-10
        assert vals.max() < 1.0 + 1e-10


def test_povm_phase_rotation_is_number_conjugation():
    phase = 0.7
    base = homodyne_povm(WINDOW, FockCutoff(10))
    rotated = homodyne_povm(AcceptanceWindow(0.3, phase), FockCutoff(10))
    n = np.arange(11)
    R = np.diag(np.exp(-1j * phase * n))
    np.testing.assert_allclose(rotated, R @ base @ R.conj().T, atol=1e-12)


def test_povm_smear_commutes_with_phase_rotation():
    phase, eta = 1.1, 0.76
    via_api = homodyne_povm(AcceptanceWindow(0.3, phase), FockCutoff(10), eta)
    rotated_then_smeared = smear_povm(
        homodyne_povm(AcceptanceWindow(0.3, phase), FockCutoff(10)), eta)
    np.testing.assert_allclose(via_api, rotated_then_smeared, atol=1e-10)


@pytest.mark.parametrize("eta", [0.0, 0.37, 0.76, 0.841, 1.0])
def test_povm_smear_is_unital(eta):
    # sum_k A_k^dag A_k = 1: the loss channel is trace preserving
    np.testing.assert_allclose(smear_povm(np.eye(14, dtype=complex), eta),
                               np.eye(14), atol=1e-12)


def row_loop_loss_amplitudes(transmission: float, dimension: int) -> np.ndarray:
    """Oracle: the row-by-row loop _loss_amplitudes replaced, unchanged, for
    0 < transmission < 1."""
    log_factorial = _log_factorial(dimension)
    b = np.zeros((dimension, dimension), dtype=complex)
    for k in range(dimension):
        n = np.arange(k, dimension)
        log_coeff = 0.5 * (log_factorial[k:] - log_factorial[k]
                           - log_factorial[:dimension - k])
        b[k, k:] = np.exp(log_coeff + 0.5 * (n - k) * np.log(transmission)
                          + 0.5 * k * np.log1p(-transmission))
    return b


@pytest.mark.parametrize("d", [1, 3, 5, 13, 61, 501])
def test_loss_amplitudes_match_the_row_loop_bit_for_bit(d):
    for eta in (1e-300, 0.01, 0.37, 0.76, 0.841, 1.0 - 1e-12):
        got = _loss_amplitudes(eta, d)
        assert got.dtype == complex
        assert np.array_equal(got, row_loop_loss_amplitudes(eta, d))
    np.testing.assert_array_equal(_loss_amplitudes(0.0, d), np.eye(d))
    identity = np.zeros((d, d))
    identity[0] = 1.0
    np.testing.assert_array_equal(_loss_amplitudes(1.0, d), identity)
    stacked = _loss_amplitudes([0.0, 0.37, 1.0], d)
    for eta, got in zip([0.0, 0.37, 1.0], stacked):
        assert np.array_equal(got, _loss_amplitudes(eta, d))


def test_loss_tables_are_read_only_and_bounded_at_the_largest_cutoff():
    table = _loss_table(MAX_CUTOFF + 1)
    assert _loss_table(MAX_CUTOFF + 1) is table
    for arr in table:
        assert not arr.flags.writeable
    # the cache holds at most maxsize tables of the largest dimension
    per_table = sum(arr.nbytes for arr in table)
    assert _loss_table.cache_info().maxsize * per_table < 30_000_000


def test_povm_rejects_bad_detector_efficiency():
    with pytest.raises(DomainError):
        homodyne_povm(WINDOW, CUT, detector_efficiency=0.0)
    with pytest.raises(DomainError):
        homodyne_povm(WINDOW, CUT, detector_efficiency=1.2)


def test_window_requires_positive_half_width():
    for eps in (0.0, -0.3, np.nan, -np.inf):
        with pytest.raises(DomainError, match="half-width"):
            AcceptanceWindow(eps)


def test_window_requires_finite_phase():
    for phase in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="phase"):
            AcceptanceWindow(0.3, phase)


# ---------------------------------------------------------------------------
# conditioning

def test_condition_two_photon_pair_probability():
    one = fock_state(1, CUT).to_density()
    joint = beam_splitter(one, one, 0.5)
    outcome = condition(joint, "b", WINDOW)
    oracle = 0.5 * (erf(0.3) + window_mass(2, 0.3))
    assert outcome.probability == pytest.approx(oracle, abs=1e-10)
    outcome.state.validate()


def test_condition_vacuum_pair_probability():
    vac = fock_state(0, CUT).to_density()
    joint = beam_splitter(vac, vac, 0.5)
    outcome = condition(joint, "b", WINDOW)
    assert outcome.probability == pytest.approx(erf(0.3), abs=1e-10)
    assert outcome.state.populations()[0] == pytest.approx(1.0, abs=1e-12)


def test_condition_rejects_unknown_mode():
    vac = fock_state(0, CUT).to_density()
    joint = beam_splitter(vac, vac, 0.5)
    with pytest.raises(DomainError):
        condition(joint, "c", WINDOW)


def test_condition_impossible_outcome_raises():
    # a bare photon has zero quadrature density at the origin, so a
    # narrow window can never fire
    vac = fock_state(0, CUT).to_density()
    one = fock_state(1, CUT).to_density()
    joint = beam_splitter(vac, one, 1.0)
    with pytest.raises(HeraldImpossibleError):
        condition(joint, "b", AcceptanceWindow(1e-5))
    # a NaN probability is no herald either
    poisoned = TwoModeState(np.full_like(joint.matrix, np.nan), CUT)
    with pytest.raises(HeraldImpossibleError):
        condition(poisoned, "b", WINDOW)


def test_condition_symmetric_between_modes():
    one = fock_state(1, CUT).to_density()
    joint = beam_splitter(one, one, 0.5)
    pa = condition(joint, "a", WINDOW).probability
    pb = condition(joint, "b", WINDOW).probability
    assert pa == pytest.approx(pb, abs=1e-12)


# ---------------------------------------------------------------------------
# breeding

def test_breed_narrow_window_approaches_pure_limit():
    one = fock_state(1, CUT).to_density()
    outcome = breed(one, one, AcceptanceWindow(1e-3))
    fid = fidelity_to_pure(outcome.state, ideal_bred_state(CUT))
    assert fid > 0.999999


def test_breed_output_parity_structure():
    # a symmetric window at zero phase gives a POVM with no odd-parity
    # matrix elements, so breeding never creates even-odd coherences;
    # the first generation from bare photons is exactly even-supported
    one = fock_state(1, CUT).to_density()
    first = breed(one, one, WINDOW).state
    assert np.max(first.populations()[1::2]) < 1e-10
    second = breed(first, first, WINDOW).state
    n = np.arange(CUT.dimension)
    odd_pairs = (n[:, None] + n[None, :]) % 2 == 1
    assert np.max(np.abs(second.matrix[odd_pairs])) < 1e-10


def test_breed_mixed_inputs_frozen_probability():
    photon = single_photon_state(0.87, cutoff=CUT)
    outcome = breed(photon, photon, WINDOW)
    assert outcome.probability == pytest.approx(0.224556394445, abs=1e-9)
    outcome.state.validate()


def test_breed_probability_is_linear_in_input_mixture():
    # the input factorizes as F|1><1| + (1-F)|0><0| per arm, so the
    # herald probability must decompose over the four pure combinations
    F = 0.87
    one = fock_state(1, CUT).to_density()
    vac = fock_state(0, CUT).to_density()
    p11 = breed(one, one, WINDOW).probability
    p10 = breed(one, vac, WINDOW).probability
    p01 = breed(vac, one, WINDOW).probability
    p00 = breed(vac, vac, WINDOW).probability
    assert p10 == pytest.approx(0.5 * (erf(0.3) + window_mass(1, 0.3)), abs=1e-10)
    expected = F * F * p11 + F * (1 - F) * (p10 + p01) + (1 - F) ** 2 * p00
    photon = single_photon_state(F, cutoff=CUT)
    assert breed(photon, photon, WINDOW).probability == pytest.approx(
        expected, abs=1e-12)


def test_breed_probability_monotone_in_window_width():
    photon = single_photon_state(0.87, cutoff=CUT)
    widths = [0.1, 0.3, 0.9, 2.7, 50.0]
    probs = [breed(photon, photon, AcceptanceWindow(w)).probability
             for w in widths]
    assert all(q > p for p, q in zip(probs, probs[1:]))
    assert probs[-1] == pytest.approx(1.0, abs=1e-8)


def test_breed_with_detector_inefficiency_lowers_distinctness():
    one = fock_state(1, CUT).to_density()
    clean = breed(one, one, WINDOW)
    smeared = breed(one, one, WINDOW, detector_efficiency=0.76)
    smeared.state.validate()
    target = ideal_bred_state(CUT)
    assert fidelity_to_pure(smeared.state, target) < fidelity_to_pure(
        clean.state, target)


def dense_breed(a, b, window, detector_efficiency):
    """Oracle: the breeding step on the full d^2 x d^2 two-mode state."""
    return condition(beam_splitter(a, b, 0.5), "b", window, detector_efficiency)


def assert_outcomes_close(got, want, atol):
    np.testing.assert_allclose(got.state.matrix, want.state.matrix, rtol=0, atol=atol)
    assert got.probability == pytest.approx(want.probability, rel=0, abs=atol)


@pytest.mark.parametrize("n_max", [20, 30])
@pytest.mark.parametrize("two_photon_weight", [0.0, 0.05])
@pytest.mark.parametrize("eta", [1.0, 0.76])
def test_breed_matches_dense_oracle(n_max, two_photon_weight, eta):
    # breed works at the photon-number support; the full-cutoff beam
    # splitter and conditioning must agree to round-off, for stored
    # inputs and for a second generation bred from the first
    cut = FockCutoff(n_max)
    fresh = single_photon_state(0.87, two_photon_weight, cut)
    stored = storage_evolve(fresh, 9, DEFAULT_PER_TRIP_TRANSMISSION)
    first = breed(stored, fresh, WINDOW, eta)
    assert_outcomes_close(first, dense_breed(stored, fresh, WINDOW, eta), 1e-14)
    second = breed(first.state, first.state, WINDOW, eta)
    assert_outcomes_close(
        second, dense_breed(first.state, first.state, WINDOW, eta), 1e-14)


def test_breed_at_full_support_is_the_dense_path():
    rng = np.random.default_rng(16)
    a = random_density(rng, CUT.dimension)
    b = random_density(rng, CUT.dimension)
    window = AcceptanceWindow(0.4, 0.3)
    got = breed(a, b, window, 0.76)
    want = dense_breed(a, b, window, 0.76)
    assert np.array_equal(got.state.matrix, want.state.matrix)
    assert got.probability == want.probability
    with pytest.raises(DomainError):
        breed(a, fock_state(1, FockCutoff(5)).to_density(), window)


def test_stacked_breed_checks_every_member():
    # a member that cannot herald, here a zero or a NaN matrix after a good
    # one, refuses the whole stack
    photon = single_photon_state(0.87, cutoff=CUT).matrix
    states, probs = _breed(np.stack([photon, photon]), photon, WINDOW, 1.0)
    one = breed(DensityOperator(photon, CUT), DensityOperator(photon, CUT), WINDOW)
    d = states.shape[-1]
    assert np.array_equal(states[1], one.state.matrix[:d, :d]) and probs[1] == one.probability
    assert not one.state.matrix[d:].any() and not one.state.matrix[:, d:].any()
    for bad in (np.zeros_like(photon), np.full_like(photon, np.nan)):
        with pytest.raises(HeraldImpossibleError):
            _breed(np.stack([photon, bad]), photon, WINDOW, 1.0)


def test_single_photon_state_population_model():
    rho = single_photon_state(0.87, two_photon_weight=0.02, cutoff=CUT)
    pops = rho.populations()
    assert pops[1] == pytest.approx(0.87)
    assert pops[2] == pytest.approx(0.02)
    assert pops[0] == pytest.approx(0.11)
    with pytest.raises(DomainError):
        single_photon_state(1.2)
    with pytest.raises(DomainError):
        single_photon_state(0.9, two_photon_weight=0.2)
    with pytest.raises(DomainError):
        single_photon_state(np.nan)
    with pytest.raises(DomainError):
        single_photon_state(0.87, two_photon_weight=np.nan)
