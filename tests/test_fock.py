import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import eval_hermite, gammaln

from catbreed import (DensityOperator, DomainError, FockCutoff, StateVector,
                      TargetCatSpec, TruncationError, annihilation_matrix,
                      coherent_state, fidelity, fidelity_to_pure, fock_state,
                      hermite_functions, loss_channel, marginal_pdf,
                      mean_photon_number, pad_density_operator,
                      parity_expectation, purity, quadrature_wavefunction,
                      squeeze_db_to_r, squeeze_matrix, target_cat, wigner,
                      wigner_grid)
from catbreed.fock import (MAX_CUTOFF, _WIGNER_CACHED_SUPPORT,
                           _cached_wigner_sectors, _log_factorial,
                           _support_dimension)
from conftest import random_density, random_pure


def ideal_bred_state(cutoff: FockCutoff) -> StateVector:
    """Narrow-window limit of breeding two photons: (sqrt(2)|2> - |0>)/sqrt(3)."""
    amps = np.zeros(cutoff.dimension, dtype=complex)
    amps[0] = -1.0 / np.sqrt(3.0)
    amps[2] = np.sqrt(2.0 / 3.0)
    return StateVector(amps, cutoff)


# ---------------------------------------------------------------------------
# basis states

def test_fock_state_vacuum_and_single_photon():
    cut = FockCutoff(10)
    vac = fock_state(0, cut)
    assert vac.amplitudes[0] == 1.0
    assert np.all(vac.amplitudes[1:] == 0.0)
    one = fock_state(1, cut)
    assert one.amplitudes[1] == 1.0
    assert one.norm == pytest.approx(1.0)


def test_fock_state_rejects_out_of_range_index():
    cut = FockCutoff(10)
    with pytest.raises(DomainError):
        fock_state(11, cut)
    with pytest.raises(DomainError):
        fock_state(-1, cut)


def test_cutoff_requires_n_max_at_least_two():
    with pytest.raises(DomainError):
        FockCutoff(1)
    assert FockCutoff(2).dimension == 3


def test_coherent_state_zero_is_vacuum():
    st = coherent_state(0.0, FockCutoff(10))
    np.testing.assert_allclose(st.amplitudes, fock_state(0, FockCutoff(10)).amplitudes)


def test_coherent_state_mean_photon_number():
    st = coherent_state(1.63, FockCutoff(20))
    assert mean_photon_number(st.to_density()) == pytest.approx(1.63 ** 2, abs=1e-4)


def test_coherent_state_warns_when_truncated_hard():
    with pytest.warns(UserWarning):
        st = coherent_state(1.63, FockCutoff(3))
    assert st.truncation_deficit > 1e-6
    assert st.norm == pytest.approx(1.0)


def test_coherent_state_without_representable_weight_raises():
    # every amplitude underflows: the captured probability is exactly 0
    with pytest.raises(TruncationError):
        coherent_state(40.0, FockCutoff(40))


def test_state_vector_normalize_and_zero_vector():
    cut = FockCutoff(4)
    raw = StateVector(np.array([3.0, 4.0, 0, 0, 0]), cut)
    assert raw.normalize().norm == pytest.approx(1.0)
    with pytest.raises(DomainError):
        StateVector(np.zeros(5), cut).normalize()


def test_annihilation_matrix_ladder_action():
    a = annihilation_matrix(6)
    for n in range(1, 6):
        col = np.zeros(6)
        col[n] = 1.0
        out = a @ col
        assert out[n - 1] == pytest.approx(np.sqrt(n))
    comm = a @ a.conj().T - a.conj().T @ a
    # canonical commutator holds except at the truncation corner
    np.testing.assert_allclose(np.diag(comm)[:-1], 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# density operators

def test_density_operator_validate_rejects_bad_matrices():
    cut = FockCutoff(3)
    good = fock_state(0, cut).to_density()
    good.validate()

    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 0] = 1.0
    skew[0, 1] = 1e-3
    with pytest.raises(DomainError):
        DensityOperator(skew, cut).validate()

    with pytest.raises(DomainError):
        DensityOperator(np.eye(4) * 0.5, cut).validate()

    neg = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(DomainError):
        DensityOperator(neg, cut).validate()


def test_density_operator_shape_check():
    with pytest.raises(DomainError):
        DensityOperator(np.eye(3), FockCutoff(3))


def test_pad_density_operator_preserves_content():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 5)
    big = pad_density_operator(rho, FockCutoff(9))
    assert big.dimension == 10
    np.testing.assert_allclose(big.matrix[:5, :5], rho.matrix)
    assert np.all(big.populations()[5:] == 0.0)
    with pytest.raises(DomainError):
        pad_density_operator(big, FockCutoff(4))
    # loss and the Wigner sum see only the photon-number support, so the
    # padding changes neither by a single bit
    for eta in (0.0, 0.37, 0.8):
        assert np.array_equal(
            loss_channel(big, eta).matrix,
            pad_density_operator(loss_channel(rho, eta), big.cutoff).matrix)
    xs = np.linspace(-4, 4, 33)
    assert np.array_equal(wigner_grid(big, xs, xs), wigner_grid(rho, xs, xs))


# ---------------------------------------------------------------------------
# squeezing

def test_squeeze_matrix_zero_db_is_identity():
    S = squeeze_matrix(0.0, FockCutoff(10))
    np.testing.assert_allclose(S, np.eye(11), atol=1e-12)


def test_squeeze_matrix_variance_from_wavefunction_quadrature():
    cut = FockCutoff(30)
    S = squeeze_matrix(3.64, cut)
    amps = S @ fock_state(0, cut).amplitudes

    def integrand(x):
        psi = hermite_functions(cut.n_max, np.array([x]))[:, 0]
        val = np.abs(np.dot(amps, psi)) ** 2
        return x * x * val

    var, _ = quad(integrand, -8, 8, limit=200)
    assert var == pytest.approx(0.5 * 10 ** (-3.64 / 10.0), abs=1e-4)


def test_squeeze_matrix_inverse_pair():
    cut = FockCutoff(30)
    prod = squeeze_matrix(3.64, cut) @ squeeze_matrix(-3.64, cut)
    assert np.max(np.abs(prod - np.eye(cut.dimension))) < 1e-6


def test_squeeze_matrix_unitary_within_tolerance():
    cut = FockCutoff(30)
    S = squeeze_matrix(6.0, cut)
    dev = np.max(np.abs(S.conj().T @ S - np.eye(cut.dimension)))
    assert dev < 1e-6


def test_squeeze_matrix_rejects_extreme_values():
    with pytest.raises(DomainError):
        squeeze_matrix(25.0, FockCutoff(30))


@pytest.mark.parametrize("s_db", [np.nan, np.inf, -np.inf])
def test_non_finite_squeezing_is_a_domain_error(s_db):
    with pytest.raises(DomainError):
        squeeze_db_to_r(s_db)
    with pytest.raises(DomainError):
        squeeze_matrix(s_db, FockCutoff(30))
    with pytest.raises(DomainError):
        target_cat(TargetCatSpec(1.63, s_db), FockCutoff(40))


@pytest.mark.parametrize("s_db", [3.64, -3.64, 15.0, -15.0])
@pytest.mark.parametrize("n_max", [20, 40, 60, 80])
def test_squeeze_matrix_matches_scipy_expm(s_db, n_max):
    a = annihilation_matrix(n_max + 1)
    r = squeeze_db_to_r(s_db)
    reference = expm((r / 2.0) * (a @ a - a.conj().T @ a.conj().T))
    S = squeeze_matrix(s_db, FockCutoff(n_max))
    assert np.max(np.abs(S - reference)) <= 1e-13


def test_log_factorial_matches_scipy_gammaln():
    n = np.arange(400)
    reference = gammaln(n + 1.0)
    table = _log_factorial(400)
    assert table.shape == (400,)
    # ln 0! = ln 1! = 0 exactly; elsewhere the relative error is round-off
    assert table[0] == 0.0 and table[1] == 0.0
    assert np.max(np.abs(table[2:] - reference[2:]) / reference[2:]) <= 1e-15


def test_squeeze_db_to_r_matches_variance_convention():
    r = squeeze_db_to_r(3.64)
    assert np.exp(-2.0 * r) == pytest.approx(10 ** (-3.64 / 10.0), rel=1e-12)


# ---------------------------------------------------------------------------
# target cat

def test_target_cat_bare_vacuum_overlap_closed_form():
    # <0|(|a> + |-a>)/N|^2 with N^2 = 2(1 + e^{-2a^2}) gives
    # 4 e^{-a^2} / (2 + 2 e^{-2a^2}); cross-checked against an explicit
    # coherent-state construction below.
    alpha = 1.63
    cat = target_cat(TargetCatSpec(amplitude=alpha, squeezing_db=0.0), FockCutoff(40))
    expected = 2.0 * np.exp(-alpha ** 2) / (1.0 + np.exp(-2.0 * alpha ** 2))
    assert abs(cat.amplitudes[0]) ** 2 == pytest.approx(expected, abs=1e-10)

    plus = coherent_state(alpha, FockCutoff(40)).amplitudes
    minus = coherent_state(-alpha, FockCutoff(40)).amplitudes
    built = plus + minus
    built /= np.linalg.norm(built)
    assert abs(cat.amplitudes[0]) ** 2 == pytest.approx(abs(built[0]) ** 2, abs=1e-10)


def test_target_cat_degenerate_amplitude_is_vacuum():
    cat = target_cat(TargetCatSpec(amplitude=0.0, squeezing_db=0.0), FockCutoff(20))
    np.testing.assert_allclose(np.abs(cat.amplitudes),
                               fock_state(0, FockCutoff(20)).amplitudes.real)


def test_target_cat_has_even_support_only():
    for spec in (TargetCatSpec(), TargetCatSpec(2.5, 15.0), TargetCatSpec(3.0, -6.0),
                 TargetCatSpec(0.7, -12.0)):
        cat = target_cat(spec, FockCutoff(60))
        assert np.all(cat.amplitudes[1::2] == 0.0)
        # the quarter-turn i^n is real on the even support
        assert np.all(cat.amplitudes.imag == 0.0)
        assert cat.norm == pytest.approx(1.0, abs=1e-12)


def test_target_cat_fidelity_to_ideal_bred_state():
    cut = FockCutoff(20)
    cat = target_cat(TargetCatSpec(), cut)
    fid = fidelity_to_pure(ideal_bred_state(cut).to_density(), cat)
    assert 0.985 < fid < 0.995


def test_target_cat_requires_large_cutoff():
    with pytest.raises(DomainError):
        target_cat(TargetCatSpec(), FockCutoff(12))
    # and squeezing beyond the 20 dB that squeeze_db_to_r accepts
    for s_db in (20.5, -20.5):
        with pytest.raises(DomainError):
            target_cat(TargetCatSpec(squeezing_db=s_db), FockCutoff(40))


@pytest.mark.parametrize("amplitude", [np.nan, np.inf, -1.0])
def test_target_cat_spec_refuses_non_finite_or_negative_amplitude(amplitude):
    with pytest.raises(DomainError):
        TargetCatSpec(amplitude)


def test_target_cat_without_representable_weight_raises():
    # exp(-alpha^2 (1 - tanh r) / 2) underflows: every amplitude is 0
    with pytest.raises(TruncationError):
        target_cat(TargetCatSpec(amplitude=40.0), FockCutoff(40))
    # 5e-320 of weight below the cutoff: a subnormal sum, renormalized it
    # would miss unit norm by 3e-5
    with pytest.raises(TruncationError):
        target_cat(TargetCatSpec(20.0, -15.0), FockCutoff(20))


def reference_target_cat(spec: TargetCatSpec, cutoff: FockCutoff,
                         work_dimension: int = MAX_CUTOFF + 1) -> tuple[np.ndarray, float]:
    """Oracle: the construction the Fock recurrence replaced, in a work basis
    of at least ``work_dimension`` states. The even cat is assembled from
    even coherent-state terms, squeezed by squeeze_matrix in the work basis,
    rotated by i^n, truncated to the cutoff and renormalized. Returns the
    amplitudes and the probability lost to the truncation."""
    dim_work = max(work_dimension, cutoff.dimension)
    n = np.arange(dim_work)
    if spec.amplitude == 0:
        even = np.zeros(dim_work, dtype=complex)
        even[0] = 1.0
    else:
        log_amp = (-spec.amplitude ** 2 / 2 + n * np.log(spec.amplitude)
                   - 0.5 * _log_factorial(dim_work))
        even = np.where(n % 2 == 0, np.exp(log_amp), 0.0).astype(complex)
        even /= np.linalg.norm(even)
    psi = (1j ** n) * (squeeze_matrix(spec.squeezing_db, FockCutoff(dim_work - 1)) @ even)
    captured = float(np.sum(np.abs(psi[:cutoff.dimension]) ** 2))
    amps = psi[:cutoff.dimension] / np.sqrt(captured)
    amps[1::2] = 0.0
    return amps, max(0.0, 1.0 - captured)


# amplitude 0..3, -12..15 dB and cutoff 20..200, each case one 501-state
# squeeze matrix for the oracle; derandomized and with no example database,
# so every run draws the same cases. A 400-state work basis would miss
# (3.0, -12 dB) at cutoff 200 by 9e-9; at 501 states the worst case measured
# on a grid of corners, (3.0, -12 dB) at cutoff 20, is 9e-14.
@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(st.floats(0.0, 3.0), st.floats(-12.0, 15.0), st.integers(20, 200))
def test_target_cat_matches_the_work_basis_oracle(amplitude, s_db, n_max):
    spec, cutoff = TargetCatSpec(amplitude, s_db), FockCutoff(n_max)
    cat = target_cat(spec, cutoff)
    amps, deficit = reference_target_cat(spec, cutoff)
    assert np.max(np.abs(cat.amplitudes - amps)) <= 1e-12
    assert abs(cat.truncation_deficit - deficit) <= 1e-12


@pytest.mark.parametrize("spec", [TargetCatSpec(3.0, -6.0), TargetCatSpec(2.5, 15.0)])
def test_target_cat_deficit_is_the_true_tail_at_cutoff_80(spec):
    # an 80-state work basis holds these cats only in part; built there, they
    # would report a deficit of ~1e-15 with amplitudes off by ~1e-2
    cat = target_cat(spec, FockCutoff(80))
    amps, deficit = reference_target_cat(spec, FockCutoff(80))
    assert deficit > 1e-3
    assert cat.truncation_deficit == pytest.approx(deficit, rel=1e-9)
    assert np.max(np.abs(cat.amplitudes - amps)) <= 1e-14


# ---------------------------------------------------------------------------
# quadrature wavefunctions

def test_wavefunction_values_at_origin():
    assert quadrature_wavefunction(0, 0.0) == pytest.approx(np.pi ** -0.25)
    assert quadrature_wavefunction(1, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert quadrature_wavefunction(2, 0.0) == pytest.approx(-np.pi ** -0.25 / np.sqrt(2))


def test_wavefunctions_match_hermite_polynomials():
    # independent route: pi^(-1/4) (2^n n!)^(-1/2) H_n(x) e^(-x^2/2)
    xs = np.linspace(-6, 6, 41)
    psi = hermite_functions(12, xs)
    for n in range(13):
        log_norm = -0.25 * np.log(np.pi) - 0.5 * (n * np.log(2.0) + gammaln(n + 1))
        ref = np.exp(log_norm) * eval_hermite(n, xs) * np.exp(-xs ** 2 / 2.0)
        np.testing.assert_allclose(psi[n], ref, atol=1e-10)


def test_wavefunction_three_term_recurrence():
    xs = np.linspace(-8, 8, 33)
    psi = hermite_functions(41, xs)
    for n in range(1, 40):
        lhs = psi[n + 1]
        rhs = xs * np.sqrt(2.0 / (n + 1)) * psi[n] - np.sqrt(n / (n + 1.0)) * psi[n - 1]
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_wavefunctions_orthonormal():
    xs = np.linspace(-10, 10, 4001)
    psi = hermite_functions(8, xs)
    gram = np.trapezoid(psi[:, None, :] * psi[None, :, :], xs, axis=2)
    np.testing.assert_allclose(gram, np.eye(9), atol=1e-8)


def unclamped_hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """The wavefunction recurrence without the argument clamp."""
    psi = np.zeros((n_max + 1,) + x.shape)
    psi[0] = np.pi ** -0.25 * np.exp(-x * x / 2.0)
    psi[1] = np.sqrt(2.0) * x * psi[0]
    for n in range(1, n_max):
        psi[n + 1] = (x * np.sqrt(2.0 / (n + 1)) * psi[n]
                      - np.sqrt(n / (n + 1.0)) * psi[n - 1])
    return psi


def test_wavefunctions_vanish_without_warning_at_huge_arguments():
    xs = np.array([-np.inf, -1e200, 1e200, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = hermite_functions(80, xs)
    assert np.all(psi == 0.0)
    # the clamp at +-40 changes no value where the recurrence is finite
    xs = np.linspace(-38.0, 38.0, 20001)
    assert np.array_equal(hermite_functions(80, xs), unclamped_hermite_functions(80, xs))


def test_wavefunction_rejects_negative_index():
    with pytest.raises(DomainError):
        quadrature_wavefunction(-1, 0.0)


# ---------------------------------------------------------------------------
# Wigner function

def test_wigner_vacuum_peak():
    vac = fock_state(0, FockCutoff(10)).to_density()
    assert wigner(vac, 0.0, 0.0) == pytest.approx(1.0 / np.pi, rel=1e-10)


def test_wigner_single_photon_negative_dip():
    one = fock_state(1, FockCutoff(10)).to_density()
    assert wigner(one, 0.0, 0.0) == pytest.approx(-1.0 / np.pi, rel=1e-10)


def test_wigner_of_ideal_bred_state_goes_negative():
    rho = ideal_bred_state(FockCutoff(10)).to_density()
    xs = np.linspace(-4, 4, 81)
    assert wigner_grid(rho, xs, xs).min() < -0.01


def test_wigner_grid_matches_pointwise_evaluation():
    rng = np.random.default_rng(1)
    rho = random_density(rng, 7)
    xs = np.linspace(-3, 3, 7)
    ps = np.linspace(-2, 2, 5)
    grid = wigner_grid(rho, xs, ps)
    for i, x in enumerate(xs):
        for j, p in enumerate(ps):
            assert grid[i, j] == pytest.approx(wigner(rho, float(x), float(p)), abs=1e-12)


def test_wigner_bounded_for_random_states():
    rng = np.random.default_rng(2)
    xs = np.linspace(-5, 5, 41)
    for _ in range(10):
        rho = random_density(rng, 9)
        w = wigner_grid(rho, xs, xs)
        assert np.max(np.abs(w)) <= 1.0 / np.pi + 1e-9


def test_wigner_normalized_for_target_cat():
    rho = target_cat(TargetCatSpec(), FockCutoff(20)).to_density()
    xs = np.linspace(-9, 9, 361)
    w = wigner_grid(rho, xs, xs)
    total = np.trapezoid(np.trapezoid(w, xs, axis=1), xs)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_wigner_marginal_matches_homodyne_pdf():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 16)
    xs = np.linspace(-4, 4, 17)
    ps = np.linspace(-9, 9, 721)
    marg = np.trapezoid(wigner_grid(rho, xs, ps), ps, axis=1)
    pdf = marginal_pdf(rho, 0.0)(xs)
    np.testing.assert_allclose(marg, pdf, atol=1e-6)


def test_wigner_origin_encodes_parity():
    rng = np.random.default_rng(4)
    for _ in range(5):
        rho = random_density(rng, 8)
        assert np.pi * wigner(rho, 0.0, 0.0) == pytest.approx(
            parity_expectation(rho), abs=1e-8)


def reference_wigner(rho: DensityOperator, x, p) -> np.ndarray:
    """Oracle: the Laguerre expansion of the displaced-parity operator that
    the separable form replaced, summed superdiagonal by superdiagonal
    with a Clenshaw recurrence, unchanged. Equal-shape x and p."""
    M = _support_dimension(rho.matrix)
    A2 = np.sqrt(2.0) * (np.asarray(x, float) + 1j * np.asarray(p, float))
    B = np.abs(A2) ** 2
    diag_scaled = rho.matrix[:M, :M] * (2.0 - np.eye(M))

    def lag_clenshaw(L: int, xx: np.ndarray, c: np.ndarray) -> np.ndarray:
        # Clenshaw sum of sum_k c_k L_k^L(xx) over normalized Laguerre
        # terms, for len(c) >= 2
        k = len(c)
        y0 = c[-2] * np.ones_like(xx)
        y1 = c[-1] * np.ones_like(xx)
        for i in range(3, len(c) + 1):
            k -= 1
            y0, y1 = (
                c[-i] - y1 * np.sqrt((k - 1.0) * (L + k - 1.0) / ((L + k) * k)),
                y0 - y1 * (L + 2.0 * k - 1 - xx) / np.sqrt((L + k) * k),
            )
        return y0 - y1 * (L + 1 - xx) / np.sqrt(L + 1.0)

    # the outermost superdiagonal has one term, L_0 = 1
    w = diag_scaled[0, M - 1] * np.ones_like(A2)
    for L in range(M - 2, -1, -1):
        w = lag_clenshaw(L, B, np.diag(diag_scaled, L)) + w * A2 / np.sqrt(L + 1.0)
    return np.real(w) * np.exp(-B / 2.0) / np.pi


def state_with_support(rng: np.random.Generator, support: int,
                       rank: int) -> DensityOperator:
    """Random rank-``rank`` state on |0> .. |support - 1>, in a basis of at
    least the smallest cutoff."""
    a = rng.normal(size=(support, rank)) + 1j * rng.normal(size=(support, rank))
    dim = max(support, 3)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[:support, :support] = a @ a.conj().T
    return DensityOperator(mat / np.real(np.trace(mat)), FockCutoff(dim - 1))


# support 1..40 with a rank 1..support, and x and p axes of their own
# lengths inside +-12; derandomized and with no example database, so every
# run draws the same cases
WIGNER_PROPERTY = settings(derandomize=True, database=None, deadline=None)
SUPPORT_AND_RANK = st.integers(1, 40).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(1, m)))
AXIS = st.tuples(st.floats(-12, 12), st.floats(-12, 12), st.integers(1, 24))


@WIGNER_PROPERTY
@given(SUPPORT_AND_RANK, AXIS, AXIS, st.integers(0, 2 ** 32 - 1))
def test_wigner_grid_matches_the_clenshaw_oracle(shape, x_axis, p_axis, seed):
    rho = state_with_support(np.random.default_rng(seed), *shape)
    xs, ps = np.linspace(*x_axis), np.linspace(*p_axis)
    X, P = np.meshgrid(xs, ps, indexing="ij")
    grid = wigner_grid(rho, xs, ps)
    assert grid.shape == (len(xs), len(ps))
    assert np.max(np.abs(grid - reference_wigner(rho, X, P))) <= 1e-13
    # the pointwise form contracts the same coefficients
    assert np.max(np.abs(wigner(rho, X, P) - grid)) <= 1e-15


def test_wigner_scalar_zero_d_and_broadcast_calls():
    rho = state_with_support(np.random.default_rng(5), 9, 4)
    xs, ps = np.linspace(-3, 2, 6), np.linspace(-1, 4, 4)
    grid = wigner_grid(rho, xs, ps)
    value = wigner(rho, 0.3, -1.2)
    assert type(value) is float
    assert value == pytest.approx(float(reference_wigner(rho, 0.3, -1.2)), abs=1e-15)
    # 0-d arrays give a numpy scalar, as numpy reductions do
    zero_d = wigner(rho, np.array(0.3), np.array(-1.2))
    assert np.shape(zero_d) == () and float(zero_d) == value
    np.testing.assert_allclose(wigner(rho, xs[:, None], ps[None, :]), grid,
                               rtol=0, atol=1e-15)
    row = wigner(rho, xs[2], ps)
    assert row.shape == ps.shape
    np.testing.assert_allclose(row, grid[2], rtol=0, atol=1e-15)
    np.testing.assert_allclose(wigner(rho, xs, ps[1]), grid[:, 1], rtol=0, atol=1e-15)


def test_wigner_origin_is_the_fock_parity_up_to_n_60():
    # every third n: both parities and every quarter turn (-i)^j, j mod 4,
    # at a fraction of the cost of 61 cold sector builds
    for n in range(0, 61, 3):
        rho = fock_state(n, FockCutoff(max(n, 2))).to_density()
        assert np.pi * wigner(rho, 0.0, 0.0) == pytest.approx((-1) ** n, abs=1e-14)


def test_wigner_sector_cache_stays_bounded():
    top = _WIGNER_CACHED_SUPPORT
    assert top == 130
    _cached_wigner_sectors.cache_clear()
    xs = np.linspace(-2, 2, 5)
    # a cold call at the largest cached support keeps its sectors:
    # support^3 doubles (17.6 MB) plus small tuple and array headers
    tracemalloc.start()
    try:
        wigner_grid(fock_state(top - 1, FockCutoff(top - 1)).to_density(), xs, xs)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 8 * top ** 3 <= retained <= 8 * top ** 3 + 100_000
    assert peak < 2 * 8 * top ** 3
    assert _cached_wigner_sectors.cache_info().currsize == 1
    # one support more and the sectors are rebuilt per call, none kept
    tracemalloc.start()
    try:
        wigner_grid(fock_state(top, FockCutoff(top)).to_density(), xs, xs)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 10_000
    assert peak < 16_000_000
    assert _cached_wigner_sectors.cache_info().currsize == 1
    # many distinct supports keep only the most recent few
    for support in range(1, 30):
        wigner(state_with_support(np.random.default_rng(support), support, 1), 0.0, 0.0)
    info = _cached_wigner_sectors.cache_info()
    assert info.currsize == info.maxsize == 4


# ---------------------------------------------------------------------------
# fidelity

# dimension 3..13, a rank 1..d for each of two states, and a numpy seed;
# derandomized and with no example database, so every run draws the same
# cases
FIDELITY_PROPERTY = settings(derandomize=True, database=None, deadline=None)
DIMENSION_AND_RANKS = st.integers(3, 13).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(1, d), st.integers(1, d)))
SEEDS = st.integers(0, 2 ** 32 - 1)


@FIDELITY_PROPERTY
@given(DIMENSION_AND_RANKS, SEEDS)
def test_fidelity_of_state_with_itself(shape, seed):
    d, rank, _ = shape
    rho = random_density(np.random.default_rng(seed), d, rank)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-13)


def test_fidelity_orthogonal_states():
    cut = FockCutoff(5)
    zero = fock_state(0, cut).to_density()
    one = fock_state(1, cut).to_density()
    assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_diagonal_overlap():
    cut = FockCutoff(5)
    mixed = DensityOperator(np.diag([0.13, 0.87, 0, 0, 0, 0]).astype(complex), cut)
    one = fock_state(1, cut).to_density()
    assert fidelity(mixed, one) == pytest.approx(0.87, abs=1e-12)


@FIDELITY_PROPERTY
@given(DIMENSION_AND_RANKS, SEEDS)
def test_fidelity_symmetric_for_mixed_pairs(shape, seed):
    d, rank_a, rank_b = shape
    rng = np.random.default_rng(seed)
    a = random_density(rng, d, rank_a)
    b = random_density(rng, d, rank_b)
    assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-14)


@FIDELITY_PROPERTY
@given(DIMENSION_AND_RANKS, SEEDS)
def test_fidelity_pure_path_consistency(shape, seed):
    d, rank, _ = shape
    rng = np.random.default_rng(seed)
    rho = random_density(rng, d, rank)
    psi = StateVector(random_pure(rng, d), FockCutoff(d - 1))
    expected = fidelity_to_pure(rho, psi)
    assert fidelity(rho, psi.to_density()) == pytest.approx(expected, abs=1e-14)
    assert fidelity(psi.to_density(), rho) == pytest.approx(expected, abs=1e-14)


def test_fidelity_ignores_round_off_in_rank_deficient_states():
    # the shape of criterion 7's pair: a rank-3 true state with exact zeros
    # outside its support, against a nearby estimate of rank 4 whose other
    # eigenvalues are round-off (about +-1e-17). A Hermitian change of the
    # true state with entries below 1e-16 must not reach F through the
    # square roots of round-off eigenvalues (about 1e-8 if they were kept).
    rng = np.random.default_rng(9)
    d = 13
    cut = FockCutoff(d - 1)

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    t = np.zeros((d, 3), dtype=complex)
    t[:6] = gaussian(6, 3)
    e = np.concatenate([t, np.zeros((d, 1))], axis=1) + 0.1 * gaussian(d, 4)
    truth, estimate = (DensityOperator(m / np.trace(m).real, cut)
                       for m in (t @ t.conj().T, e @ e.conj().T))
    f = fidelity(estimate, truth)
    for _ in range(5):
        # real and imaginary parts within +-0.5e-16: entries below 1e-16
        h = 0.5e-16 * (rng.uniform(-1, 1, (d, d))
                       + 1j * rng.uniform(-1, 1, (d, d)))
        nudged = DensityOperator(truth.matrix + (h + h.conj().T) / 2, cut)
        assert abs(fidelity(estimate, nudged) - f) < 1e-13


def test_fidelity_rejects_mismatched_cutoffs():
    rng = np.random.default_rng(8)
    with pytest.raises(DomainError):
        fidelity(random_density(rng, 6), random_density(rng, 7))


def test_fidelity_rejects_nonpositive_input():
    cut = FockCutoff(3)
    neg = DensityOperator(np.diag([1.5, -0.5, 0, 0]).astype(complex), cut)
    good = fock_state(0, cut).to_density()
    with pytest.raises(DomainError):
        fidelity(neg, good)


def test_purity_and_mean_photon_number():
    cut = FockCutoff(5)
    one = fock_state(1, cut).to_density()
    assert purity(one) == pytest.approx(1.0)
    assert mean_photon_number(one) == pytest.approx(1.0)
    mixed = DensityOperator(np.diag([0.5, 0.5, 0, 0, 0, 0]).astype(complex), cut)
    assert purity(mixed) == pytest.approx(0.5)
