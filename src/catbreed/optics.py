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
    _check_density_matrix,
    _exp_minus_i,
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


def _beam_splitter_blocks(dimension: int, theta: float, phase: float):
    """exp(-i theta G) of G = e^{i phase} a^dag b + h.c. by one complex eigh
    per total-photon sector (G conserves the photon number), built when asked
    for: yields (flat two-mode indices, block) for total = 0 .. 2 (dimension - 1).
    Totals >= dimension exponentiate the truncated generator."""
    d = dimension
    for total in range(2 * d - 1):
        ks = np.arange(max(0, total - d + 1), min(total, d - 1) + 1)   # n_a values
        # <k+1, t-k-1| a^dag b |k, t-k> = sqrt((k+1)(t-k))
        amp = np.sqrt((ks[:-1] + 1.0) * (total - ks[:-1]))
        gen = np.diag(np.exp(1j * phase) * amp, -1) + np.diag(np.exp(-1j * phase) * amp, 1)
        yield ks * d + (total - ks), _exp_minus_i(theta * gen)


# each entry is (d^2)^2 complex numbers, 45 MB at cutoff 40, so the cache holds at
# most 181 MB there; breeding asks for two keys (work dimensions 3 and 5, theta pi/4)
@lru_cache(maxsize=4)
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
    return TwoModeState(_mix(a.matrix, b.matrix, transmittance, phase), a.cutoff)


def _mix(a: np.ndarray, b: np.ndarray, transmittance: float, phase: float) -> np.ndarray:
    """``beam_splitter`` of mode-a states ``a``, one (d, d) or a stack, with ``b``."""
    d = b.shape[-1]
    U = _beam_splitter_unitary(d, float(np.arccos(np.sqrt(transmittance))), float(phase))
    joint = (a[..., :, None, :, None] * b[:, None, :]).reshape(a.shape[:-2] + (d * d,) * 2)
    return U @ joint @ U.conj().T


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


@lru_cache(maxsize=6)
def _loss_table(dimension: int) -> tuple[np.ndarray, ...]:
    """The read-only part of ``_loss_amplitudes`` without eta: log-binomials (-inf for
    k > n), n > k with (n - k)/2, and k > 0 with k/2. At 17 bytes per (k, n), the six
    cached tables hold at most 26 MB at MAX_CUTOFF."""
    log_fact, (k, n) = _log_factorial(dimension), np.ogrid[:dimension, :dimension]
    table = (np.where(n >= k, 0.5 * (log_fact[n] - log_fact[k] - log_fact[n - k]), -np.inf),
             n > k, 0.5 * (n - k), k > 0, 0.5 * k)
    for arr in table:
        arr.setflags(write=False)
    return table


def _loss_amplitudes(transmission, dimension: int) -> np.ndarray:
    """Binomial amplitudes of the pure-loss (generalized Bernoulli) channel.

    b[k, n] = sqrt(C(n, k) eta^(n-k) (1-eta)^k) is the amplitude for
    losing k of n photons, |n> -> |n-k>, and zero for k > n; the channel
    is rho -> sum_k A_k rho A_k^dag with A_k = sum_n b[k, n] |n-k><n|.
    Computed in the log domain to stay finite at large n, and exact at the
    edges: eta = 1 is b[0, n] = 1 alone, eta = 0 is b[k, k] = 1. An array
    of transmissions gives a stack, of shape its shape + (dimension, dimension).
    Only the eta terms are computed per call; the rest is the cached ``_loss_table``.
    """
    eta = np.asarray(transmission, dtype=float)[..., None, None]
    if not ((0.0 <= eta) & (eta <= 1.0)).all():
        raise DomainError(f"transmission must lie in [0, 1], got {transmission}")
    log_coeff, lost, half_lost, kept, half_kept = _loss_table(dimension)
    with np.errstate(divide="ignore", invalid="ignore"):   # 0 * log 0 at the edges, masked
        log_b = (log_coeff + np.where(lost, half_lost * np.log(eta), 0.0)
                 + np.where(kept, half_kept * np.log1p(-eta), 0.0))
    return np.exp(log_b)


def _lose(matrix: np.ndarray, transmission) -> np.ndarray:
    """The loss channel on a state or a stack of states ``matrix`` (..., D, D)
    at a transmission or a stack of them, broadcast together. Loss never
    raises the photon number, so it acts on the stack's support block."""
    s = _support_dimension(matrix)
    block, b = matrix[..., :s, :s], _loss_amplitudes(transmission, s)
    out = np.zeros(np.broadcast_shapes(matrix.shape, b.shape[:-2] + (1, 1)), dtype=complex)
    for k in range(s):
        # A_k rho A_k^dag: rho[n, m] moves to [n-k, m-k], scaled by b[k, n] b[k, m]
        v = b[..., k, k:]
        out[..., :s - k, :s - k] += (v[..., :, None] * block[..., k:, k:]) * v[..., None, :]
    return out


def _lose_populations(populations: np.ndarray, transmission) -> np.ndarray:
    """The real diagonal of ``_lose`` on the diagonal state of photon-number
    populations p (D,), at a transmission or a stack of them: p'[j] =
    sum_k (b[k, j+k] p[j+k]) b[k, j+k], the same products in the same k order,
    so every value is _lose's bit for bit, without its D x D blocks."""
    d = populations.shape[-1]
    b = _loss_amplitudes(transmission, d)
    out = np.zeros(b.shape[:-2] + (d,))
    for k in range(d):
        v = b[..., k, k:]
        out[..., :d - k] += (v * populations[k:]) * v
    return out


def loss_channel(rho: DensityOperator, transmission: float) -> DensityOperator:
    """Photon loss with power transmission ``transmission`` (eta).

    Trace preserving; satisfies the semigroup law
    loss(loss(rho, e1), e2) = loss(rho, e1 * e2). It is ``_lose`` on a single
    state; transmission 1 is exactly the identity, 0 exactly the vacuum.
    """
    return DensityOperator(_lose(rho.matrix, transmission), rho.cutoff)


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


def _smear_povm(pi: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Adjoint loss map sum_k A_k^dag Pi A_k for ``_loss_amplitudes`` b."""
    d = pi.shape[0]
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
    pi = _window_matrix(cutoff.dimension, -eps, eps)
    if detector_efficiency < 1.0:
        pi = _smear_povm(pi, _loss_amplitudes(detector_efficiency, cutoff.dimension))
    pi = np.array(pi, dtype=complex)
    if window.phase != 0.0:
        pi = pi * _phase_rotation(window.phase, cutoff.dimension)
    return pi


def _measure(pi: np.ndarray, r4: np.ndarray, measured_mode: str):
    """``condition`` of joint states ``r4``, one (d, d, d, d) or a stack:
    the heralded states and the probabilities Tr[(1 x Pi) rho]."""
    if measured_mode not in ("a", "b"):
        raise DomainError(f"measured_mode must be 'a' or 'b', got {measured_mode!r}")
    raw = np.einsum("ab,...bnam->...nm" if measured_mode == "a" else "bk,...nkmb->...nm",
                    pi, r4)
    prob = np.trace(raw, axis1=-2, axis2=-1).real
    if not np.all(prob >= 1e-12):   # also refuses NaN
        raise HeraldImpossibleError(
            f"conditioning probability {np.min(prob):.3e} is numerically zero")
    return (raw + np.swapaxes(raw.conj(), -1, -2)) / (2.0 * prob[..., None, None]), prob


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
    state, prob = _measure(pi, two_mode.matrix.reshape(d, d, d, d), measured_mode)
    return HeraldOutcome(DensityOperator(state, two_mode.cutoff), float(prob))


def _breed(a: np.ndarray, b: np.ndarray, window: AcceptanceWindow,
           detector_efficiency: float) -> tuple[np.ndarray, np.ndarray]:
    """``breed`` of mode-a states ``a``, one (D, D) or a stack, with ``b``, all at
    the work dimension d of the widest support: unpadded states (..., d, d)."""
    d = min(max(_support_dimension(a) + _support_dimension(b) - 2, 2), b.shape[-1] - 1) + 1
    r = _mix(a[..., :d, :d], b[:d, :d], 0.5, 0.0)
    pi = homodyne_povm(window, FockCutoff(d - 1), detector_efficiency)
    return _measure(pi, r.reshape(r.shape[:-2] + (d,) * 4), "b")


def breed(a: DensityOperator, b: DensityOperator, window: AcceptanceWindow,
          detector_efficiency: float = 1.0) -> HeraldOutcome:
    """One breeding step: balanced beam splitter, then window conditioning.

    Mode b carries the measured output; mode a carries the bred state.
    Iterating on the outputs is supported (states are closed under the
    operation). It is the stacked core ``_breed`` on a single state.

    The beam splitter conserves total photon number, so inputs supported
    on |0..s_a-1> and |0..s_b-1> never leave the sectors up to
    s_a + s_b - 2 photons. Both steps run at that work cutoff (capped at
    the inputs' own) and the heralded state is zero-padded back; the cost
    follows the photon support, not the cutoff.
    """
    if a.cutoff != b.cutoff:
        raise DomainError("beam splitter inputs must share a cutoff")
    state, prob = _breed(a.matrix, b.matrix, window, detector_efficiency)
    work = DensityOperator(state, FockCutoff(len(state) - 1))
    return HeraldOutcome(pad_density_operator(work, a.cutoff), float(prob))


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
