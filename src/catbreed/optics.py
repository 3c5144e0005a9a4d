"""Two-mode operations of the breeding protocol: beam splitter, loss
channels, the windowed homodyne-conditioning POVM, and the composite
breeding step.

Two-mode index convention: basis state |n_a, n_b> sits at flat index
n_a * dimension + n_b (mode a is the slow index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, HeraldImpossibleError
from .fock import (
    DensityOperator,
    FockCutoff,
    _beam_splitter_blocks,
    _check_density_matrix,
    _log_factorial,
    _phase_rotation,
    _support_dimension,
    hermite_functions,
    pad_density_operator,
)


@dataclass(frozen=True, eq=False)
class TwoModeState:
    """Density operator on two modes sharing one cutoff.

    Flat index convention: (n_a, n_b) -> n_a * dimension + n_b.
    """

    matrix: np.ndarray
    cutoff: FockCutoff

    def __post_init__(self):
        d2 = self.cutoff.dimension ** 2
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (d2, d2):
            raise DomainError(f"two-mode matrix has shape {mat.shape}, expected ({d2}, {d2})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def validate(self) -> "TwoModeState":
        _check_density_matrix(self.matrix, "two-mode state")
        return self


@dataclass(frozen=True)
class AcceptanceWindow:
    """Quadrature acceptance window [-half_width, half_width] at ``phase``."""

    half_width: float = 0.3
    phase: float = 0.0

    def __post_init__(self):
        # +inf is a valid half-width: the window is the identity
        if not self.half_width > 0:
            raise DomainError(f"window half-width must be > 0, got {self.half_width}")
        if not np.isfinite(self.phase):
            raise DomainError(f"window phase must be finite, got {self.phase}")


@dataclass(frozen=True, eq=False)
class HeraldOutcome:
    """Result of a conditioning measurement: heralded state + probability."""

    state: DensityOperator
    probability: float


@lru_cache(maxsize=16)
def _beam_splitter_unitary(dimension: int, theta: float, phase: float) -> np.ndarray:
    """U = exp(-i theta (e^{i phase} a^dag b + h.c.)), assembled from its
    total-photon sector blocks, which are far cheaper to exponentiate than
    one dense matrix of size dimension^2."""
    d = dimension
    U = np.zeros((d * d, d * d), dtype=complex)
    for idx, block in _beam_splitter_blocks(d, theta, phase):
        U[np.ix_(idx, idx)] = block
    U.setflags(write=False)
    return U


def beam_splitter(a: DensityOperator, b: DensityOperator,
                  transmittance: float, phase: float = 0.0) -> TwoModeState:
    """Mix two single-mode states on a beam splitter.

    Args:
        a, b: input states sharing one cutoff.
        transmittance: power transmission t in [0, 1]; t = 1/2 is the
            balanced splitter of the breeding step.
        phase: relative phase of the mixing generator.

    Returns:
        Two-mode output state. Two photons entering a balanced splitter
        coalesce: both exit through the same port with no |1,1>
        component, populating (|2,0> + |0,2>)/sqrt(2) up to a global
        phase.
    """
    if not 0.0 <= transmittance <= 1.0:
        raise DomainError(f"transmittance must lie in [0, 1], got {transmittance}")
    if a.cutoff != b.cutoff:
        raise DomainError("beam splitter inputs must share a cutoff")
    theta = float(np.arccos(np.sqrt(transmittance)))
    U = _beam_splitter_unitary(a.cutoff.dimension, theta, float(phase))
    joint = np.kron(a.matrix, b.matrix)
    return TwoModeState(U @ joint @ U.conj().T, a.cutoff)


def partial_trace(state: TwoModeState, keep: str) -> DensityOperator:
    """Trace out one mode; ``keep`` is 'a' or 'b'."""
    d = state.cutoff.dimension
    r4 = state.matrix.reshape(d, d, d, d)
    if keep == "a":
        reduced = np.einsum("nkmk->nm", r4)
    elif keep == "b":
        reduced = np.einsum("knkm->nm", r4)
    else:
        raise DomainError(f"keep must be 'a' or 'b', got {keep!r}")
    return DensityOperator(reduced, state.cutoff)


def _loss_amplitudes(transmission: float, dimension: int) -> np.ndarray:
    """Binomial amplitudes of the pure-loss (generalized Bernoulli) channel.

    b[k, n] = sqrt(C(n, k) eta^(n-k) (1-eta)^k) is the amplitude for
    losing k of n photons, |n> -> |n-k>, and zero for k > n; the channel
    is rho -> sum_k A_k rho A_k^dag with A_k = sum_n b[k, n] |n-k><n|.
    Computed in the log domain to stay finite at large n. Callers treat
    transmission 1 (the identity) themselves.
    """
    if not 0.0 <= transmission <= 1.0:
        raise DomainError(f"transmission must lie in [0, 1], got {transmission}")
    if transmission == 0.0:
        # everything decays to vacuum: |k> -> |0> with amplitude 1
        return np.eye(dimension, dtype=complex)
    log_factorial = _log_factorial(dimension)
    # complex, so that the products with complex states need no cast
    b = np.zeros((dimension, dimension), dtype=complex)
    for k in range(dimension):
        n = np.arange(k, dimension)
        log_coeff = 0.5 * (log_factorial[k:] - log_factorial[k]
                           - log_factorial[:dimension - k])
        b[k, k:] = np.exp(log_coeff + 0.5 * (n - k) * np.log(transmission)
                          + 0.5 * k * np.log1p(-transmission))
    return b


def loss_channel(rho: DensityOperator, transmission: float) -> DensityOperator:
    """Photon loss with power transmission ``transmission`` (eta).

    Trace preserving; satisfies the semigroup law
    loss(loss(rho, e1), e2) = loss(rho, e1 * e2). Loss never raises the
    photon number, so the map acts on the support block only.
    """
    if transmission == 1.0:
        return rho
    s = _support_dimension(rho.matrix)
    block = rho.matrix[:s, :s]
    b = _loss_amplitudes(transmission, s)
    out = np.zeros((rho.dimension,) * 2, dtype=complex)
    for k in range(s):
        # A_k rho A_k^dag: rho[n, m] moves to [n-k, m-k], scaled by b[k, n] b[k, m]
        v = b[k, k:]
        out[:s - k, :s - k] += (v[:, None] * block[k:, k:]) * v[None, :]
    return DensityOperator(out, rho.cutoff)


def _window_antiderivative(dimension: int, x: float) -> np.ndarray:
    """A(x) with dA_mn/dx = psi_m psi_n for m, n < dimension, in closed form.

    From psi_n'' = (x^2 - 2n - 1) psi_n and psi_n' = x psi_n - sqrt(2(n+1)) psi_{n+1},
    A_mn = (sqrt(2(m+1)) psi_{m+1} psi_n - sqrt(2(n+1)) psi_{n+1} psi_m) / (2(m - n))
    off the diagonal, and A_00 = erf(x)/2, A_{n+1,n+1} = A_nn - psi_n psi_{n+1} / sqrt(2(n+1)).
    Every psi_n is exactly 0 at +-inf, so A(inf) - A(-inf) is exactly the identity.
    """
    psi = hermite_functions(dimension, x)
    n = np.arange(dimension)
    raised = np.sqrt(2.0 * (n + 1)) * psi[1:]     # sqrt(2(n+1)) psi_{n+1}
    gap = 2.0 * (n[:, None] - n) + np.eye(dimension)   # 1 on the diagonal
    A = (raised[:, None] * psi[None, :-1] - psi[:-1, None] * raised[None, :]) / gap
    steps = psi[:-2] * psi[1:-1] / np.sqrt(2.0 * (n[:-1] + 1))
    A[n, n] = np.cumsum(np.concatenate([[math.erf(x) / 2.0], -steps]))
    return A


@lru_cache(maxsize=64)
def _window_matrix(dimension: int, lo: float, hi: float) -> np.ndarray:
    """Exact integrals Pi_mn = int_lo^hi psi_m(x) psi_n(x) dx at theta = 0,
    A(hi) - A(lo) from the closed-form antiderivative."""
    mat = _window_antiderivative(dimension, hi) - _window_antiderivative(dimension, lo)
    mat.setflags(write=False)
    return mat


def _smear_povm(pi: np.ndarray, transmission: float) -> np.ndarray:
    """Adjoint loss map on a POVM element: sum_k A_k^dag Pi A_k."""
    if transmission == 1.0:
        return pi
    d = pi.shape[0]
    b = _loss_amplitudes(transmission, d).real   # so a real Pi stays real
    out = np.zeros_like(pi)
    for k in range(d):
        # A_k^dag Pi A_k: Pi[n, m] moves to [n+k, m+k], scaled by b[k, n+k] b[k, m+k]
        v = b[k, k:]
        out[k:, k:] += (v[:, None] * pi[:d - k, :d - k]) * v[None, :]
    return out


def homodyne_povm(window: AcceptanceWindow, cutoff: FockCutoff,
                  detector_efficiency: float = 1.0) -> np.ndarray:
    """POVM element for a quadrature result inside ``window``.

    Pi_mn = int_{-eps}^{eps} psi_m psi_n e^{i(n-m) theta} dx, smeared by
    the loss-channel adjoint when the detector efficiency is below 1.
    The integrals are exact at every cutoff (closed-form antiderivative),
    so an infinitely wide window is exactly the identity.
    """
    if not 0.0 < detector_efficiency <= 1.0:
        raise DomainError(f"detector efficiency must lie in (0, 1], got {detector_efficiency}")
    eps = window.half_width
    pi = np.array(_window_matrix(cutoff.dimension, -eps, eps), dtype=complex)
    if detector_efficiency < 1.0:
        pi = _smear_povm(pi, detector_efficiency)
    if window.phase != 0.0:
        pi = pi * _phase_rotation(window.phase, cutoff.dimension)
    return pi


def condition(two_mode: TwoModeState, measured_mode: str,
              window: AcceptanceWindow,
              detector_efficiency: float = 1.0) -> HeraldOutcome:
    """Project onto a windowed quadrature result on one mode.

    Args:
        two_mode: joint input state.
        measured_mode: 'a' or 'b', the mode the homodyne detector reads.
        window: acceptance window.
        detector_efficiency: homodyne efficiency; below 1 the POVM is
            smeared by the loss adjoint.

    Returns:
        HeraldOutcome with the renormalized surviving mode and the
        acceptance probability Tr[(1 x Pi) rho].

    Raises:
        HeraldImpossibleError: acceptance probability below 1e-12 or NaN.
    """
    d = two_mode.cutoff.dimension
    pi = homodyne_povm(window, two_mode.cutoff, detector_efficiency)
    r4 = two_mode.matrix.reshape(d, d, d, d)
    if measured_mode == "b":
        raw = np.einsum("bk,nkmb->nm", pi, r4)
    elif measured_mode == "a":
        raw = np.einsum("ab,bnam->nm", pi, r4)
    else:
        raise DomainError(f"measured_mode must be 'a' or 'b', got {measured_mode!r}")
    prob = float(np.real(np.trace(raw)))
    if not prob >= 1e-12:   # also refuses NaN
        raise HeraldImpossibleError(
            f"conditioning probability {prob:.3e} is numerically zero")
    state = (raw + raw.conj().T) / (2.0 * prob)
    return HeraldOutcome(DensityOperator(state, two_mode.cutoff), prob)


def breed(a: DensityOperator, b: DensityOperator, window: AcceptanceWindow,
          detector_efficiency: float = 1.0) -> HeraldOutcome:
    """One breeding step: balanced beam splitter, then window conditioning.

    Mode b carries the measured output; mode a carries the bred state.
    Iterating on the outputs is supported (states are closed under the
    operation).

    The beam splitter conserves total photon number, so inputs supported
    on |0..s_a-1> and |0..s_b-1> never leave the sectors up to
    s_a + s_b - 2 photons. Both steps run at that work cutoff (capped at
    the inputs' own) and the heralded state is zero-padded back; the cost
    follows the photon support, not the cutoff.
    """
    if a.cutoff != b.cutoff:
        raise DomainError("beam splitter inputs must share a cutoff")
    support = _support_dimension(a.matrix) + _support_dimension(b.matrix) - 2
    work = FockCutoff(min(max(support, 2), a.cutoff.n_max))
    d = work.dimension
    joint = beam_splitter(DensityOperator(a.matrix[:d, :d], work),
                          DensityOperator(b.matrix[:d, :d], work), 0.5, 0.0)
    outcome = condition(joint, "b", window, detector_efficiency)
    return HeraldOutcome(pad_density_operator(outcome.state, a.cutoff),
                         outcome.probability)


def single_photon_state(photon_fidelity: float = 0.87,
                        two_photon_weight: float = 0.0,
                        cutoff: FockCutoff = FockCutoff(20)) -> DensityOperator:
    """Heralded-photon model: F|1><1| + (1-F-w2)|0><0| + w2|2><2|."""
    if not 0.0 <= photon_fidelity <= 1.0:
        raise DomainError(f"photon fidelity must lie in [0, 1], got {photon_fidelity}")
    if not (two_photon_weight >= 0 and photon_fidelity + two_photon_weight <= 1.0):
        raise DomainError("two-photon weight must be >= 0 and F + w2 <= 1")
    mat = np.zeros((cutoff.dimension, cutoff.dimension), dtype=complex)
    mat[1, 1] = photon_fidelity
    mat[0, 0] = 1.0 - photon_fidelity - two_photon_weight
    mat[2, 2] = two_photon_weight
    return DensityOperator(mat, cutoff)
