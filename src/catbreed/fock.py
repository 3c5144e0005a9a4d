"""Truncated Fock-basis states, constructors, quadrature wavefunctions,
Wigner evaluation and fidelity metrics.

Conventions fixed package-wide:
  * quadrature operator x = (a + a^dag)/sqrt(2), so the vacuum has
    variance 1/2 and |psi_n(x)|^2 are the photon-number quadrature laws;
  * squeezing quoted in dB of variance, positive values reducing the
    x-variance: s_dB -> r = ln(10^(s_dB/20)), variance factor 10^(-s_dB/10).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, TruncationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_TOL = -1e-9
# a MaxLik reconstruction peaks at about 1.6 kB per density-matrix entry
# (0.41 GB at this cap of 501 x 501 entries), the largest per-cutoff
# allocation here; larger cutoffs are refused before anything allocates
MAX_CUTOFF = 500


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FockCutoff:
    """Photon-number truncation: basis spans |0> .. |n_max>."""

    n_max: int

    def __post_init__(self):
        if not 2 <= self.n_max <= MAX_CUTOFF:
            raise DomainError(
                f"cutoff n_max must lie in [2, {MAX_CUTOFF}], got {self.n_max}")

    @property
    def dimension(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state in the truncated Fock basis.

    ``truncation_deficit`` records probability mass lost to truncation by
    the constructor (0 when the state is exactly representable).
    """

    amplitudes: np.ndarray
    cutoff: FockCutoff
    truncation_deficit: float = 0.0

    def __post_init__(self):
        amps = _readonly(self.amplitudes)
        if amps.shape != (self.cutoff.dimension,):
            raise DomainError(
                f"amplitude vector has shape {amps.shape}, "
                f"expected ({self.cutoff.dimension},)"
            )
        object.__setattr__(self, "amplitudes", amps)

    def normalize(self) -> "StateVector":
        norm = float(np.linalg.norm(self.amplitudes))
        if norm < 1e-12:
            raise DomainError("cannot normalize a zero vector")
        return StateVector(self.amplitudes / norm, self.cutoff,
                           self.truncation_deficit)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def to_density(self) -> "DensityOperator":
        psi = self.amplitudes
        return DensityOperator(np.outer(psi, psi.conj()), self.cutoff)


def _check_density_matrix(mat: np.ndarray, what: str) -> None:
    """Raise DomainError unless ``mat`` is Hermitian, of unit trace and
    positive semidefinite within the module tolerances."""
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    if herm > HERMITICITY_TOL:
        raise DomainError(f"{what} not Hermitian (deviation {herm:.3e})")
    tr = float(np.real(np.trace(mat)))
    if abs(tr - 1.0) > TRACE_TOL:
        raise DomainError(f"{what} trace {tr} differs from 1 beyond tolerance")
    lam_min = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2).min())
    if lam_min < POSITIVITY_TOL:
        raise DomainError(f"{what} has negative eigenvalue {lam_min:.3e}")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Mixed state in the truncated Fock basis.

    Invariants (checked by ``validate``): Hermitian within 1e-10, unit
    trace within 1e-9, eigenvalues above -1e-9.
    """

    matrix: np.ndarray
    cutoff: FockCutoff

    def __post_init__(self):
        mat = _readonly(self.matrix)
        d = self.cutoff.dimension
        if mat.shape != (d, d):
            raise DomainError(f"matrix has shape {mat.shape}, expected ({d}, {d})")
        object.__setattr__(self, "matrix", mat)

    def validate(self) -> "DensityOperator":
        _check_density_matrix(self.matrix, "density matrix")
        return self

    @property
    def dimension(self) -> int:
        return self.cutoff.dimension

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()


def _support_dimension(matrix: np.ndarray) -> int:
    """1 + the highest Fock index with a nonzero row or column (at least 1).

    Everything outside the leading support block of ``matrix`` is exactly
    zero, so operations that cannot raise the photon number may act on
    that block alone.
    """
    nonzero = matrix != 0
    occupied = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    return int(occupied[-1]) + 1 if occupied.size else 1


def _exp_minus_i(h: np.ndarray) -> np.ndarray:
    """exp(-i h) of a Hermitian matrix h, as V e^{-i lambda} V^dag from
    its eigendecomposition h = V lambda V^dag (unitary to round-off)."""
    lam, vec = np.linalg.eigh(h)
    return (vec * np.exp(-1j * lam)) @ vec.conj().T


def _log_factorial(dimension: int) -> np.ndarray:
    """ln(n!) for n = 0 .. dimension - 1.

    Each entry is one math.lgamma call, accurate to a few ulp; a
    cumulative sum of logs would accumulate round-off with n.
    """
    return np.array([math.lgamma(n + 1.0) for n in range(dimension)])


def _phase_rotation(theta: float, dimension: int) -> np.ndarray:
    """Elementwise factor e^{i theta (n - m)} at [m, n].

    Multiplying a matrix by it conjugates the matrix with the
    number-operator rotation e^{-i theta n}: X -> e^{-i theta n} X e^{i theta n}.
    """
    n = np.arange(dimension)
    return np.exp(1j * theta * (n[None, :] - n[:, None]))


def annihilation_matrix(dimension: int) -> np.ndarray:
    """Matrix of the annihilation operator a, truncated to ``dimension``."""
    return np.diag(np.sqrt(np.arange(1.0, dimension)), 1).astype(complex)


def fock_state(n: int, cutoff: FockCutoff) -> StateVector:
    if not 0 <= n <= cutoff.n_max:
        raise DomainError(f"Fock index {n} outside [0, {cutoff.n_max}]")
    amps = np.zeros(cutoff.dimension, dtype=complex)
    amps[n] = 1.0
    return StateVector(amps, cutoff)


def coherent_state(alpha: complex, cutoff: FockCutoff) -> StateVector:
    """Coherent state |alpha>, renormalized after truncation.

    Args:
        alpha: complex displacement amplitude.
        cutoff: basis truncation.

    Returns:
        Normalized StateVector; emits a warning and records the deficit
        when the truncated tail mass exceeds 1e-6.

    Raises:
        TruncationError: no representable weight below the cutoff.
    """
    n = np.arange(cutoff.dimension)
    # log-domain: alpha^n / sqrt(n!) overflows for |alpha|^2 ~ n_max otherwise
    log_mag = n * np.log(np.abs(alpha)) if alpha != 0 else np.where(n == 0, 0.0, -np.inf)
    log_amp = (-np.abs(alpha) ** 2 / 2 + log_mag
               - 0.5 * _log_factorial(cutoff.dimension))
    phase = np.exp(1j * n * np.angle(alpha)) if alpha != 0 else np.ones_like(n, dtype=complex)
    amps = np.exp(log_amp) * phase
    captured = float(np.sum(np.abs(amps) ** 2))
    if not captured >= np.finfo(float).tiny:   # 0, or subnormal and too coarse to renormalize
        raise TruncationError(f"coherent state has no weight below cutoff {cutoff.n_max}", 1.0)
    deficit = max(0.0, 1.0 - captured)
    if deficit > 1e-6:
        warnings.warn(
            f"coherent_state(|alpha|={abs(alpha):.3g}) loses {deficit:.3e} "
            f"probability at cutoff {cutoff.n_max}; renormalizing",
            stacklevel=2,
        )
    amps = amps / np.sqrt(captured)
    return StateVector(amps, cutoff, truncation_deficit=deficit)


def squeeze_db_to_r(s_db: float) -> float:
    """dB-of-variance to squeeze parameter r (positive r squeezes x), |s_db| <= 20."""
    if not abs(s_db) <= 20:   # also refuses NaN
        raise DomainError(f"|s_db| must be <= 20 to stay within truncation, got {s_db}")
    return float(np.log(10.0 ** (s_db / 20.0)))


def squeeze_matrix(s_db: float, cutoff: FockCutoff) -> np.ndarray:
    """Squeeze unitary S with positive ``s_db`` reducing the x-variance.

    S = exp(K) with K = (r/2)(a^2 - a^dag^2), r = ln(10^(s_dB/20)). The
    truncated K stays real antisymmetric, so iK is Hermitian and
    S = exp(-i (iK)) is unitary to machine precision; the deviation is
    still measured and enforced below 1e-6.

    Args:
        s_db: squeezing in dB of variance, |s_db| <= 20.
        cutoff: basis truncation.

    Returns:
        dimension x dimension complex unitary matrix.
    """
    r = squeeze_db_to_r(s_db)
    a = annihilation_matrix(cutoff.dimension)
    S = _exp_minus_i(1j * (r / 2.0) * (a @ a - a.conj().T @ a.conj().T))
    deviation = float(np.max(np.abs(S.conj().T @ S - np.eye(cutoff.dimension))))
    if deviation > 1e-6:
        raise TruncationError("squeeze operator lost unitarity", deviation)
    return S


@dataclass(frozen=True)
class TargetCatSpec:
    """Even squeezed-cat target: (|alpha> + |-alpha>)/N with x-squeezing."""

    amplitude: float = 1.63
    squeezing_db: float = 3.64

    def __post_init__(self):
        if not 0 <= self.amplitude < np.inf:
            raise DomainError(f"cat amplitude must be finite and >= 0, got {self.amplitude}")


# The breeding protocol produces its cat fringes along the momentum
# quadrature; the constructed target is rotated into that frame with the
# number-operator quarter-turn i^n so fidelities compare like with like.
def target_cat(spec: TargetCatSpec, cutoff: FockCutoff) -> StateVector:
    """Squeezed even cat S(r)(|alpha> + |-alpha>)/N in the frame of the bred
    states, exact at every cutoff.

    S a S^dag = a cosh r + a^dag sinh r has eigenvalue alpha on S|alpha> (Yuen,
    Phys. Rev. A 13, 2226, 1976), so its amplitudes c_n obey the recurrence
    c_{n+1} = (alpha c_n - sinh r sqrt(n) c_{n-1}) / (cosh r sqrt(n + 1)). The
    cat is 2 c_n / N on even n and 0 on odd n, with N^2 = 2 + 2 exp(-2 alpha^2)
    exactly, so ``truncation_deficit`` is the true probability above the cutoff.
    A cat with no representable weight below the cutoff is a TruncationError.
    """
    if cutoff.n_max < 20:
        raise DomainError(f"target_cat needs cutoff >= 20, got {cutoff.n_max}")
    alpha, r = spec.amplitude, squeeze_db_to_r(spec.squeezing_db)
    ch, sh = math.cosh(r), math.sinh(r)
    c = np.empty(cutoff.dimension)
    c[0] = math.exp(-alpha ** 2 * (1.0 - math.tanh(r)) / 2.0) / math.sqrt(ch)
    c[1] = alpha * c[0] / ch
    for n in range(1, cutoff.n_max):
        c[n + 1] = (alpha * c[n] - sh * math.sqrt(n) * c[n - 1]) / (ch * math.sqrt(n + 1.0))
    c[1::2] = 0.0
    c[2::4] *= -1.0   # i^n is (-1)^(n/2) on even n
    psi = 2.0 * c / math.sqrt(2.0 + 2.0 * math.exp(-2.0 * alpha ** 2))
    captured = float(psi @ psi)
    if not captured >= np.finfo(float).tiny:   # 0, or subnormal and too coarse to renormalize
        raise TruncationError(f"target cat {spec} has no weight below cutoff {cutoff.n_max}", 1.0)
    return StateVector(psi / math.sqrt(captured), cutoff,
                       truncation_deficit=max(0.0, 1.0 - captured))


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """All quadrature wavefunctions psi_0..psi_n_max evaluated at x.

    Uses the normalized three-term recurrence
    psi_{n+1} = x sqrt(2/(n+1)) psi_n - sqrt(n/(n+1)) psi_{n-1},
    stable to n of several hundred (no factorials, no raw Hermite
    polynomials).

    Args:
        n_max: highest index to evaluate.
        x: evaluation points, any shape.

    Returns:
        Array of shape (n_max + 1,) + x.shape.
    """
    # psi_0 is exactly 0 beyond |x| ~ 38.6, so the clamp changes no value; it
    # keeps x * x from overflowing (|x| > 1e154) and inf * 0 from making NaN
    x = np.clip(np.asarray(x, dtype=float), -40.0, 40.0)
    psi = np.zeros((n_max + 1,) + x.shape)
    psi[0] = np.pi ** -0.25 * np.exp(-x * x / 2.0)
    if n_max >= 1:
        psi[1] = np.sqrt(2.0) * x * psi[0]
    for n in range(1, n_max):
        psi[n + 1] = (x * np.sqrt(2.0 / (n + 1)) * psi[n]
                      - np.sqrt(n / (n + 1.0)) * psi[n - 1])
    return psi


def quadrature_wavefunction(n: int, x) -> np.ndarray | float:
    """psi_n(x) = pi^(-1/4) (2^n n!)^(-1/2) H_n(x) exp(-x^2/2)."""
    if n < 0:
        raise DomainError(f"wavefunction index must be >= 0, got {n}")
    arr = np.asarray(x, dtype=float)
    val = hermite_functions(n, arr)[n]
    return float(val) if np.isscalar(x) else val


def _beam_splitter_blocks(dimension: int, theta: float, phase: float):
    """exp(-i theta G) of G = e^{i phase} a^dag b + h.c., block diagonal
    over the total-photon sectors since G conserves the photon number.
    Yields (flat two-mode indices, block) for total = 0 .. 2 (dimension - 1),
    each sector built only when it is asked for."""
    d = dimension
    for total in range(2 * d - 1):
        ks = np.arange(max(0, total - d + 1), min(total, d - 1) + 1)   # n_a values
        # <k+1, t-k-1| a^dag b |k, t-k> = sqrt((k+1)(t-k))
        amp = np.sqrt((ks[:-1] + 1.0) * (total - ks[:-1]))
        gen = np.diag(np.exp(1j * phase) * amp, -1) + np.diag(np.exp(-1j * phase) * amp, 1)
        yield ks * d + (total - ks), _exp_minus_i(theta * gen)


def _wigner_sectors(support: int):
    """For N = 0 .. 2 support - 2, yield (lo, the columns lo .. min(N,
    support - 1) of sector N / sqrt(pi)): what _wigner_coefficients reads of
    the balanced beam splitter at phase pi/2 and dimension 2 support - 1,
    where no sector is truncated and each is real to round-off. support^3
    doubles in all."""
    K = 2 * support - 1
    for N, (_, block) in zip(range(K), _beam_splitter_blocks(K, np.pi / 4, np.pi / 2)):
        lo = max(0, N - support + 1)
        yield lo, block.real[:, lo:min(N, support - 1) + 1] / np.sqrt(np.pi)


# the 4 most recent supports up to 130 keep their sectors (<= 4 x 17.6 MB);
# larger ones rebuild them on every call, holding one sector at a time
_WIGNER_CACHED_SUPPORT = 130
_cached_wigner_sectors = lru_cache(maxsize=4)(lambda M: tuple(_wigner_sectors(M)))
_QUARTER_TURNS = np.array([1.0, -1j, -1.0, 1j])   # (-i)^j at j mod 4, exact


def _wigner_coefficients(rho: DensityOperator) -> np.ndarray:
    """Real K x K D, K = 2 M - 1 at support M, with W(x, p) =
    sum_kl D_kl psi_k(sqrt2 x) psi_l(sqrt2 p).

    W = (1/pi) int dy <x-y|rho|x+y> e^{2ipy}. The 45-degree rotation (the
    balanced beam splitter B) turns psi_m(x-y) psi_n(x+y) into a sum of
    psi_k(sqrt2 x) psi_{N-k}(sqrt2 y), N = m + n, and psi_l has Fourier
    transform i^l psi_l, so D_{k,N-k} = Re[(-i)^{N-k} (B^N rho_{N-n,n})_k] / sqrt(pi).
    """
    M = _support_dimension(rho.matrix)
    D = np.zeros((2 * M - 1, 2 * M - 1))
    cached = M <= _WIGNER_CACHED_SUPPORT
    for N, (lo, block) in enumerate(_cached_wigner_sectors(M) if cached else _wigner_sectors(M)):
        n, k = np.arange(lo, lo + block.shape[1]), np.arange(N + 1)
        D[k, N - k] = (_QUARTER_TURNS[(N - k) % 4] * (block @ rho.matrix[N - n, n])).real
    return D


def wigner(rho: DensityOperator, x, p) -> np.ndarray | float:
    """Wigner function of ``rho`` at phase-space points (x, p), scalars or
    arrays that broadcast together; W has their broadcast shape.

    Normalized so that the integral over the plane is 1 and |W| <= 1/pi.
    Exact up to round-off in the separable form of ``_wigner_coefficients``,
    which reads the photon-number support block alone: zero padding changes
    no bit of W, and the cost follows the support, not the cutoff.
    """
    scalar = np.isscalar(x) and np.isscalar(p)
    xv, pv = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(p, dtype=float))
    D = _wigner_coefficients(rho)
    psi_x, psi_p = (hermite_functions(len(D) - 1, np.sqrt(2.0) * v) for v in (xv, pv))
    W = np.sum(psi_x * np.tensordot(D, psi_p, axes=1), axis=0)
    return float(W) if scalar else W


def wigner_grid(rho: DensityOperator, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """``wigner`` on the outer grid xs x ps, shape (len(xs), len(ps)), as
    two matrix products."""
    D = _wigner_coefficients(rho)
    psi_x, psi_p = (hermite_functions(len(D) - 1, np.sqrt(2.0) * np.ravel(v).astype(float))
                    for v in (xs, ps))
    return psi_x.T @ D @ psi_p


def _psd_factor(rho: DensityOperator) -> np.ndarray:
    """A with rho = A A^dag from one eigh of rho's Hermitian part.

    Eigenvalues at or below numpy's matrix_rank tolerance, d * eps *
    lambda_max, are round-off and dropped: kept, a 1e-17 eigenvalue would
    reach the fidelity through its square root, ~3e-9.
    """
    lam, vec = np.linalg.eigh((rho.matrix + rho.matrix.conj().T) / 2)
    if lam[0] < POSITIVITY_TOL:
        raise DomainError(f"fidelity input has negative eigenvalue {lam[0]:.3e}")
    keep = lam > rho.dimension * np.finfo(float).eps * lam[-1]
    return vec[:, keep] * np.sqrt(lam[keep])


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    With rho = A A^dag and sigma = B B^dag, Tr sqrt(sqrt(rho) sigma
    sqrt(rho)) is the sum of the singular values of A^dag B, so
    F = (sum of singular values of A^dag B)^2. A pure argument is a
    rank-1 factor, and no matrix square root is taken.
    """
    if rho.cutoff != sigma.cutoff:
        raise DomainError("fidelity requires matching cutoffs")
    overlap = _psd_factor(rho).conj().T @ _psd_factor(sigma)
    return float(np.sum(np.linalg.svd(overlap, compute_uv=False)) ** 2)


def fidelity_to_pure(rho: DensityOperator, psi: StateVector) -> float:
    """<psi|rho|psi> without building the projector."""
    if rho.cutoff != psi.cutoff:
        raise DomainError("fidelity requires matching cutoffs")
    v = psi.amplitudes
    return float(np.real(v.conj() @ rho.matrix @ v))


def pad_density_operator(rho: DensityOperator, cutoff: FockCutoff) -> DensityOperator:
    """Embed a density operator in a larger basis by zero padding."""
    if cutoff.n_max < rho.cutoff.n_max:
        raise DomainError(
            f"cannot pad from n_max={rho.cutoff.n_max} down to {cutoff.n_max}")
    if cutoff.n_max == rho.cutoff.n_max:
        return rho
    out = np.zeros((cutoff.dimension, cutoff.dimension), dtype=complex)
    out[:rho.dimension, :rho.dimension] = rho.matrix
    return DensityOperator(out, cutoff)


def purity(rho: DensityOperator) -> float:
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def mean_photon_number(rho: DensityOperator) -> float:
    return float(np.real(np.sum(np.arange(rho.dimension) * np.diag(rho.matrix))))


def parity_expectation(rho: DensityOperator) -> float:
    """<(-1)^n>; equals pi * W(0, 0) under this Wigner normalization."""
    signs = np.where(np.arange(rho.dimension) % 2 == 0, 1.0, -1.0)
    return float(np.real(np.sum(signs * np.diag(rho.matrix))))
