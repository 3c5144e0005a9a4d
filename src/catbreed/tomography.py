"""Synthetic homodyne data, binned iterative maximum-likelihood state
reconstruction with efficiency correction, and bootstrap uncertainty
estimation.

Reconstruction follows the iterative R-rho-R scheme on binned data:
POVM elements are quadrature-window integrals per (phase, x-bin) cell,
optionally smeared by the loss-channel adjoint to model detection (and
storage) inefficiency, so "corrected" estimates never require inverting
a loss map.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError
from .fock import (DensityOperator, FockCutoff, _phase_rotation,
                   hermite_functions)
from .optics import QUADRATURE_SUPPORT, _smear_povm, _window_matrix

GRID_SPAN = QUADRATURE_SUPPORT     # sampling grid covers [-12, 12]
GRID_POINTS = 4096
EFFICIENCY_MODELS = ("none", "detection", "detection+storage")
MIN_RESAMPLES = 50      # fewest bootstrap resamples for a 95% interval


def _fold_phases(thetas: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold phases into [0, pi); each pi-fold flips the sign of x."""
    folds = np.floor(thetas / np.pi).astype(int)
    thetas = thetas - folds * np.pi
    xs = np.where(folds % 2 == 0, xs, -xs)
    return thetas, xs


@dataclass(frozen=True, eq=False)
class HomodyneDataset:
    """Ordered quadrature samples (theta_i, x_i) plus source metadata."""

    thetas: np.ndarray
    xs: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        th = np.atleast_1d(np.asarray(self.thetas, dtype=float))
        xv = np.atleast_1d(np.asarray(self.xs, dtype=float))
        if th.shape != xv.shape or th.ndim != 1:
            raise DomainError("thetas and xs must be equal-length 1-d arrays")
        if not np.all(np.isfinite(xv)):
            raise DomainError("quadrature values must be finite")
        th, xv = _fold_phases(th, xv)
        th.setflags(write=False)
        xv.setflags(write=False)
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "xs", xv)

    def __len__(self) -> int:
        return len(self.xs)

    def unique_phases(self) -> np.ndarray:
        return np.unique(np.round(self.thetas, 12))


def concat_datasets(parts: list[HomodyneDataset]) -> HomodyneDataset:
    meta = dict(parts[0].metadata) if parts else {}
    return HomodyneDataset(
        np.concatenate([p.thetas for p in parts]),
        np.concatenate([p.xs for p in parts]),
        meta,
    )


def marginal_pdf(rho: DensityOperator, theta: float):
    """Quadrature distribution pr(x | theta) as a vectorized callable.

    pr(x|theta) = sum_mn rho_mn e^{i(n-m)theta} psi_m(x) psi_n(x).
    """
    rotated = rho.matrix * _phase_rotation(theta, rho.dimension)

    def pdf(x):
        scalar = np.isscalar(x)
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        psi = hermite_functions(rho.dimension - 1, arr)
        vals = np.real(np.einsum("mx,mn,nx->x", psi, rotated, psi))
        return float(vals[0]) if scalar else vals

    return pdf


def _inverse_cdf_table(rho: DensityOperator, theta: float):
    xg = np.linspace(-GRID_SPAN, GRID_SPAN, GRID_POINTS)
    pdf = np.clip(marginal_pdf(rho, theta)(xg), 0.0, None)
    dx = xg[1] - xg[0]
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * dx / 2.0)])
    cdf /= cdf[-1]
    return xg, cdf


def sample_homodyne(rho: DensityOperator, theta: float, count: int,
                    rng: np.random.Generator,
                    phase_noise_sigma: float = 0.0) -> HomodyneDataset:
    """Draw i.i.d. quadrature samples at one homodyne phase.

    Sampling inverts the cumulative marginal on a fixed grid (span
    [-12, 12], 4096 points, linear interpolation). With
    ``phase_noise_sigma`` > 0 the true measurement phase jitters around
    ``theta`` (discretized to 64 jitter bins) while the recorded phase
    stays ``theta`` -- a robustness knob, off by default.

    Args:
        rho: state to measure.
        theta: homodyne phase in radians.
        count: number of samples, >= 1.
        rng: NumPy random generator (determinism contract: same seed,
            same dataset).
        phase_noise_sigma: standard deviation of the phase jitter in
            radians, finite and >= 0.

    Returns:
        HomodyneDataset of ``count`` samples, all at phase ``theta``.
    """
    if count < 1:
        raise DomainError(f"sample count must be >= 1, got {count}")
    if not 0.0 <= phase_noise_sigma < np.inf:
        raise DomainError(f"phase noise sigma must be finite and >= 0, "
                          f"got {phase_noise_sigma}")
    meta = {"phase": theta, "count": count, "phase_noise_sigma": phase_noise_sigma}
    if phase_noise_sigma == 0.0:
        xg, cdf = _inverse_cdf_table(rho, theta)
        xs = np.interp(rng.random(count), cdf, xg)
        return HomodyneDataset(np.full(count, theta), xs, meta)

    jitter = rng.normal(0.0, phase_noise_sigma, size=count)
    edges = np.quantile(jitter, np.linspace(0.0, 1.0, 65))
    which = np.clip(np.searchsorted(edges, jitter, side="right") - 1, 0, 63)
    xs = np.empty(count)
    for b in range(64):
        mask = which == b
        if not mask.any():
            continue
        delta = float(jitter[mask].mean())
        xg, cdf = _inverse_cdf_table(rho, theta + delta)
        xs[mask] = np.interp(rng.random(int(mask.sum())), cdf, xg)
    return HomodyneDataset(np.full(count, theta), xs, meta)


def uniform_phases(n_phases: int) -> np.ndarray:
    """n equally spaced homodyne phases covering [0, pi)."""
    if n_phases < 1:
        raise DomainError("need at least one phase")
    return np.arange(n_phases) * np.pi / n_phases


def sample_homodyne_phases(rho: DensityOperator, phases: np.ndarray,
                           total_count: int, rng: np.random.Generator,
                           phase_noise_sigma: float = 0.0) -> HomodyneDataset:
    """Split ``total_count`` samples across phases (earlier phases take
    the remainder) and concatenate the per-phase datasets."""
    n_ph = len(phases)
    if n_ph == 0 or total_count < n_ph:
        raise DomainError("need at least one phase and one sample per phase")
    base, extra = divmod(total_count, n_ph)
    parts = []
    for k, th in enumerate(phases):
        cnt = base + (1 if k < extra else 0)
        parts.append(sample_homodyne(rho, float(th), cnt, rng, phase_noise_sigma))
    ds = concat_datasets(parts)
    ds.metadata["total_count"] = total_count
    return ds


# ---------------------------------------------------------------------------
# binned POVM construction

N_X_BINS = 200          # uniform bins across [-6, 6]
X_BIN_SPAN = 6.0        # plus one tail bin out to the grid edge on each side


def _bin_edges() -> np.ndarray:
    inner = np.linspace(-X_BIN_SPAN, X_BIN_SPAN, N_X_BINS + 1)
    return np.concatenate([[-GRID_SPAN], inner, [GRID_SPAN]])


@lru_cache(maxsize=8)
def _binned_povm(dimension: int, eta_total: float) -> np.ndarray:
    """Real window matrices W of shape (n_bins, d * d) for binned MaxLik.

    Row b is the window integral over x-bin b at phase 0, smeared by the
    loss adjoint when eta_total < 1. The POVM element of (phase k, bin b)
    is W_b * _phase_rotation(theta_k, d) elementwise: loss is phase
    covariant, so smearing and rotating commute, and no phase enters the
    cache key.
    """
    edges = _bin_edges()
    windows = np.stack([
        _smear_povm(_window_matrix(dimension, float(lo), float(hi)),
                    eta_total).real.ravel()
        for lo, hi in zip(edges[:-1], edges[1:])
    ])
    windows.setflags(write=False)
    return windows


def _cell_probabilities(rho: np.ndarray, windows: np.ndarray,
                        rotations: np.ndarray) -> np.ndarray:
    """p[k, b] = Tr(Pi_kb rho) for Pi_kb = W_b * rot_k, with ``rotations``
    the (n_phases, d * d) stack of flattened rot_k.

    W_b is real, so only Re(rot_k * rho^T) contributes.
    """
    return np.real(rotations * rho.T.ravel()) @ windows.T


def _likelihood_operator(weights: np.ndarray, windows: np.ndarray,
                         rotations: np.ndarray) -> np.ndarray:
    """R = sum_kb weights[k, b] Pi_kb = sum_k rot_k * (weights_k @ W)."""
    d = math.isqrt(windows.shape[1])
    return np.sum(rotations * (weights @ windows), axis=0).reshape(d, d)


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    rho_hat: DensityOperator
    iterations: int
    final_likelihood_gain: float
    efficiency_model: str
    likelihood_history: tuple
    stop_reason: str
    gap_bound: float


def _efficiency_transmission(efficiency_model: str, eta_detection: float,
                             storage_transmission: float) -> float:
    if efficiency_model not in EFFICIENCY_MODELS:
        raise DomainError(
            f"efficiency_model must be one of {EFFICIENCY_MODELS}, "
            f"got {efficiency_model!r}")
    if efficiency_model == "none":
        return 1.0
    factors = {"eta_detection": eta_detection}
    if efficiency_model == "detection+storage":
        factors["storage_transmission"] = storage_transmission
    eta_total = 1.0
    for name, value in factors.items():
        # the POVM is smeared only below 1, so a factor above 1 would
        # silently fit the uncorrected model
        if not 0.0 < value <= 1.0:
            raise DomainError(f"{name} must lie in (0, 1], got {value}")
        eta_total *= value
    return eta_total


def maxlik_reconstruct(data: HomodyneDataset, cutoff: FockCutoff,
                       efficiency_model: str = "none",
                       eta_detection: float = 0.76,
                       storage_transmission: float = 0.841,
                       max_iter: int = 2000,
                       tol_per_sample: float = 1e-10) -> ReconstructionResult:
    """Iterative maximum-likelihood reconstruction from homodyne samples.

    Samples are binned per (phase, x-bin) cell; the update is
    rho <- normalize(R rho R) with R = sum_j (f_j / p_j) Pi_j over the
    observed cells, which never decreases the binned log-likelihood.
    Each Pi_j factors into a real window matrix and a phase rotation, so
    an iteration costs two real products with the (n_bins, d * d) window
    matrix and never forms the complex POVM stack.
    Cell probabilities are floored at 1e-12 and R is dampened with a
    1e-12 identity so empty-model cells cannot produce divisions by
    zero.

    Args:
        data: homodyne dataset, at least ``cutoff.dimension`` samples.
        cutoff: reconstruction basis truncation.
        efficiency_model: 'none', 'detection', or 'detection+storage';
            the latter two smear the POVM by the corresponding loss
            transmission so the estimate refers to the state before
            those losses.
        eta_detection: homodyne detection efficiency used by the
            correction models.
        storage_transmission: storage-loss transmission composed into
            the 'detection+storage' model.
        max_iter: iteration cap, >= 1.
        tol_per_sample: stop once the per-sample log-likelihood gain
            falls below this; -inf runs to max_iter.

    Returns:
        ReconstructionResult with the estimate and convergence record;
        ``gap_bound`` = lambda_max(R) - 1 at the returned estimate bounds
        how much per-sample log-likelihood any state could still gain.

    Raises:
        ConvergenceError: dataset smaller than the basis dimension
            (under-determined problem).
        DomainError: unknown efficiency model, an efficiency it uses
            outside (0, 1], samples outside [-12, 12], max_iter < 1, or a
            tol_per_sample that is NaN or +inf.
    """
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    if not tol_per_sample < np.inf:
        raise DomainError(f"tol_per_sample must be a number below inf, got "
                          f"{tol_per_sample}")
    d = cutoff.dimension
    if len(data) < d:
        raise ConvergenceError(
            f"under-determined reconstruction: {len(data)} samples for "
            f"dimension {d}; need at least {d}")
    eta_total = _efficiency_transmission(efficiency_model, eta_detection,
                                         storage_transmission)

    edges = _bin_edges()
    outside = int(np.count_nonzero((data.xs < edges[0]) | (data.xs > edges[-1])))
    if outside:
        raise DomainError(
            f"{outside} of {len(data)} samples lie outside the binned "
            f"quadrature span [{edges[0]:g}, {edges[-1]:g}]")
    phases = data.unique_phases()
    windows = _binned_povm(d, float(eta_total))
    rotations = np.stack([_phase_rotation(th, d).ravel() for th in phases])
    counts = np.zeros((len(phases), len(edges) - 1))
    phase_of = np.searchsorted(phases, np.round(data.thetas, 12))
    for k in range(len(phases)):
        counts[k], _ = np.histogram(data.xs[phase_of == k], bins=edges)
    freq = counts / counts.sum()

    # boolean indexing keeps the (phase, bin) cells in row-major order
    occupied = freq > 0
    freq_occ = freq[occupied]
    weights = np.zeros_like(freq)

    def update_operator(rho):
        """Clipped occupied-cell probabilities and R = sum_j (f_j/p_j) Pi_j."""
        probs = _cell_probabilities(rho, windows, rotations)[occupied]
        probs = np.clip(probs, 1e-12, None)
        weights[occupied] = freq_occ / probs
        return probs, _likelihood_operator(weights, windows, rotations)

    damping = 1e-12 * np.eye(d)
    rho = np.eye(d, dtype=complex) / d
    history = []
    stop_reason = "max_iterations"
    gain = float("inf")
    for _ in range(max_iter):
        probs, R = update_operator(rho)
        ll = float(np.sum(freq_occ * np.log(probs)))
        if history:
            gain = ll - history[-1]
        history.append(ll)
        # gain starts at inf, above every accepted tolerance
        if gain < tol_per_sample:
            stop_reason = "converged"
            break
        R = R + damping
        rho = R @ rho @ R
        rho = (rho + rho.conj().T) / 2.0
        rho /= np.real(np.trace(rho))

    # concavity of the log-likelihood bounds the per-sample gap to the
    # maximum by lambda_max(R) - 1 at the returned estimate (Glancy, Knill
    # & Girard, NJP 14, 095017, 2012)
    _, R = update_operator(rho)
    gap_bound = float(np.linalg.eigvalsh(R)[-1]) - 1.0

    return ReconstructionResult(
        rho_hat=DensityOperator(rho, cutoff),
        iterations=len(history),
        final_likelihood_gain=gain,
        efficiency_model=efficiency_model,
        likelihood_history=tuple(history),
        stop_reason=stop_reason,
        gap_bound=gap_bound,
    )


@dataclass(frozen=True)
class BootstrapResult:
    mean: float
    std: float
    ci_low: float
    ci_high: float
    n_resamples: int
    n_failed: int
    values: tuple


def bootstrap_many(data: HomodyneDataset, n_resamples: int, statistics: dict,
                   rng: np.random.Generator,
                   **reconstruct_kwargs) -> dict:
    """Bootstrap several statistics while reconstructing each resample once.

    Each resample redraws the dataset with replacement, re-runs
    maxlik_reconstruct, and evaluates every statistic on the resulting
    ReconstructionResult. Per-resample RNG streams are spawned from
    ``rng`` in resample order, so results are deterministic under a
    fixed master seed and independent of execution interleaving.

    Args:
        data: original dataset.
        n_resamples: >= MIN_RESAMPLES (50).
        statistics: mapping name -> callable(ReconstructionResult) -> float,
            e.g. fidelity to a target or a Wigner minimum.
        rng: master generator.
        **reconstruct_kwargs: forwarded to maxlik_reconstruct (must
            include ``cutoff``).

    Returns:
        dict name -> BootstrapResult with mean, std and the 2.5/97.5
        percentile CI.

    Raises:
        ConvergenceError: more than 10% of resamples failed.
    """
    if n_resamples < MIN_RESAMPLES:
        raise DomainError(
            f"n_resamples must be >= {MIN_RESAMPLES}, got {n_resamples}")
    if not statistics:
        raise DomainError("need at least one statistic")
    streams = rng.spawn(n_resamples)
    n = len(data)
    values = {name: [] for name in statistics}
    n_failed = 0
    for stream in streams:
        idx = stream.integers(0, n, size=n)
        resample = HomodyneDataset(data.thetas[idx], data.xs[idx],
                                   dict(data.metadata))
        try:
            result = maxlik_reconstruct(resample, **reconstruct_kwargs)
        except ConvergenceError:
            n_failed += 1
            continue
        for name, statistic in statistics.items():
            values[name].append(float(statistic(result)))
    if n_failed > 0.1 * n_resamples:
        raise ConvergenceError(
            f"bootstrap failed: {n_failed}/{n_resamples} resamples did not "
            f"reconstruct")
    out = {}
    for name, vals in values.items():
        arr = np.array(vals)
        lo, hi = np.percentile(arr, [2.5, 97.5])
        out[name] = BootstrapResult(
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)),
            ci_low=float(lo),
            ci_high=float(hi),
            n_resamples=n_resamples,
            n_failed=n_failed,
            values=tuple(arr),
        )
    return out


def bootstrap(data: HomodyneDataset, n_resamples: int, statistic,
              rng: np.random.Generator, **reconstruct_kwargs) -> BootstrapResult:
    """Single-statistic bootstrap; see bootstrap_many for the contract."""
    results = bootstrap_many(data, n_resamples, {"statistic": statistic},
                             rng, **reconstruct_kwargs)
    return results["statistic"]


# ---------------------------------------------------------------------------
# file formats

DATASET_HEADER = "theta,x"


def save_dataset_csv(data: HomodyneDataset, path) -> None:
    with open(path, "w") as fh:
        fh.write(DATASET_HEADER + "\n")
        for th, x in zip(data.thetas, data.xs):
            fh.write(f"{th:.12g},{x:.12g}\n")


def load_dataset_csv(path) -> HomodyneDataset:
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                body = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed dataset: {exc}") from exc
    if header != DATASET_HEADER:
        raise ConfigError(
            f"{path}: expected header {DATASET_HEADER!r}, got {header!r}")
    if body.size == 0:
        raise ConfigError(f"{path}: dataset is empty")
    if body.shape[1] != 2:
        raise ConfigError(
            f"{path}: expected 2 columns ({DATASET_HEADER}), got {body.shape[1]}")
    return HomodyneDataset(body[:, 0], body[:, 1], {"source": str(path)})


def write_density_csv(rho: DensityOperator, path) -> None:
    """Density matrix as CSV with interleaved real/imaginary columns."""
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


def read_density_csv(path) -> DensityOperator:
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read density matrix {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed density-matrix file: {exc}") from exc
    if len(header) % 2 != 0 or body.size == 0:
        raise ConfigError(f"{path}: malformed density-matrix file")
    d = len(header) // 2
    if body.shape != (d, 2 * d):
        raise ConfigError(
            f"{path}: expected {d} rows x {2 * d} columns, got {body.shape}")
    mat = body[:, 0::2] + 1j * body[:, 1::2]
    return DensityOperator(mat, FockCutoff(d - 1))


def write_meta(path, entries: dict) -> None:
    """Structured-text sidecar: one `key = value` per line."""
    with open(path, "w") as fh:
        for key, val in entries.items():
            fh.write(f"{key} = {val}\n")


def read_meta(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            if "=" in line:
                key, val = line.split("=", 1)
                out[key.strip()] = val.strip()
    return out
