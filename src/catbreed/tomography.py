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

import inspect
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError
from .fock import (DensityOperator, FockCutoff, _phase_rotation,
                   _support_dimension, hermite_functions)
from .optics import _smear_povm, _window_antiderivative

GRID_SPAN = 12.0        # the sampling grid and the MaxLik bins cover [-12, 12]
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
    """Ordered quadrature samples (theta_i, x_i)."""

    thetas: np.ndarray
    xs: np.ndarray

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


def marginal_pdf(rho: DensityOperator, theta: float):
    """Quadrature distribution pr(x | theta) as a vectorized callable.

    pr(x|theta) = sum_mn Re[rho_mn e^{i(n-m)theta}] psi_m(x) psi_n(x), m, n < support.
    """
    M = _support_dimension(rho.matrix)
    rotated = (rho.matrix[:M, :M] * _phase_rotation(theta, M)).real.T

    def pdf(x):
        psi = hermite_functions(M - 1, np.asarray(x, dtype=float))
        vals = np.sum(psi * np.tensordot(rotated, psi, axes=1), axis=0)
        return float(vals) if np.isscalar(x) else vals

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
        theta: homodyne phase in radians, finite.
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
    if not math.isfinite(theta):
        raise DomainError(f"homodyne phase must be finite, got {theta}")
    if not 0.0 <= phase_noise_sigma < np.inf:
        raise DomainError(f"phase noise sigma must be finite and >= 0, "
                          f"got {phase_noise_sigma}")
    if phase_noise_sigma == 0.0:
        xg, cdf = _inverse_cdf_table(rho, theta)
        xs = np.interp(rng.random(count), cdf, xg)
        return HomodyneDataset(np.full(count, theta), xs)

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
    return HomodyneDataset(np.full(count, theta), xs)


def uniform_phases(n_phases: int) -> np.ndarray:
    """n equally spaced homodyne phases covering [0, pi)."""
    if n_phases < 1:
        raise DomainError("need at least one phase")
    return np.arange(n_phases) * np.pi / n_phases


def sample_homodyne_phases(rho: DensityOperator, phases: np.ndarray,
                           total_count: int, rng: np.random.Generator,
                           phase_noise_sigma: float = 0.0) -> HomodyneDataset:
    """Split ``total_count`` samples across phases (earlier phases take
    the remainder) and concatenate the per-phase samples."""
    n_ph = len(phases)
    if n_ph == 0 or total_count < n_ph:
        raise DomainError("need at least one phase and one sample per phase")
    finite = np.isfinite(phases)
    if not finite.all():
        raise DomainError(f"homodyne phase must be finite, got "
                          f"{phases[np.argmin(finite)]}")
    base, extra = divmod(total_count, n_ph)
    parts = [sample_homodyne(rho, float(th), base + (1 if k < extra else 0),
                             rng, phase_noise_sigma)
             for k, th in enumerate(phases)]
    return HomodyneDataset(np.concatenate([p.thetas for p in parts]),
                           np.concatenate([p.xs for p in parts]))


# ---------------------------------------------------------------------------
# binned POVM construction

N_X_BINS = 200          # uniform bins across [-6, 6]
X_BIN_SPAN = 6.0        # plus one tail bin out to the grid edge on each side
RESAMPLE_BLOCK = 16     # bootstrap resamples fitted together


def _bin_edges() -> np.ndarray:
    inner = np.linspace(-X_BIN_SPAN, X_BIN_SPAN, N_X_BINS + 1)
    return np.concatenate([[-GRID_SPAN], inner, [GRID_SPAN]])


@lru_cache(maxsize=8)
def _upper_triangle(dimension: int) -> tuple:
    """Row and column indices of the d(d+1)/2 entries on and above the
    diagonal, and the weight of each in a trace: 1 on the diagonal, 2 off
    it, where the entry stands for its mirror too."""
    rows, cols = np.triu_indices(dimension)
    return rows, cols, np.where(rows == cols, 1.0, 2.0)


@lru_cache(maxsize=8)
def _binned_povm(dimension: int, eta_total: float) -> np.ndarray:
    """Real window matrices of shape (n_bins, d(d+1)/2) for binned MaxLik.

    Row b is the upper triangle of the window integral W_b over x-bin b at
    phase 0, smeared by the loss adjoint when eta_total < 1; W_b is
    symmetric, so the triangle holds all of it. The POVM element of
    (phase k, bin b) is W_b * _phase_rotation(theta_k, d) elementwise: loss
    is phase covariant, so smearing and rotating commute, and no phase
    enters the cache key. One walk over the edges evaluates the closed-form
    antiderivative A of psi_m psi_n once per edge; W_b = A(hi) - A(lo).
    """
    rows, cols, _ = _upper_triangle(dimension)
    edges = _bin_edges()
    windows = np.empty((len(edges) - 1, len(rows)))
    below = _window_antiderivative(dimension, edges[0])
    for b, edge in enumerate(edges[1:]):
        above = _window_antiderivative(dimension, edge)
        windows[b] = _smear_povm(above - below, eta_total)[rows, cols]
        below = above
    windows.setflags(write=False)
    return windows


def _cell_probabilities(rho: np.ndarray, windows: np.ndarray,
                        rotations: np.ndarray) -> np.ndarray:
    """p[i, k, b] = Tr(Pi_kb rho_i) for a stack rho of shape (B, d, d) and
    Pi_kb = W_b * rot_k, with ``windows`` and ``rotations`` the
    (n_bins, T) and (n_phases, T) upper triangles of W_b and rot_k,
    T = d(d+1)/2.

    W_b is real and symmetric and rho_i Hermitian, so the trace is the sum
    over the triangle of Re(rot_k * conj(rho_i)) W_b, off-diagonal entries
    counted twice.
    """
    rows, cols, weight = _upper_triangle(rho.shape[-1])
    upper = rho[:, rows, cols] * weight
    terms = (rotations.real * upper.real[:, None]
             + rotations.imag * upper.imag[:, None])
    n_fits, n_phases, n_upper = terms.shape
    probs = terms.reshape(-1, n_upper) @ windows.T
    return probs.reshape(n_fits, n_phases, -1)


def _likelihood_operator(weights: np.ndarray, windows: np.ndarray,
                         rotations: np.ndarray) -> np.ndarray:
    """R_i = sum_kb weights[i, k, b] Pi_kb = sum_k rot_k * (weights_ik @ W)
    for a (B, n_phases, n_bins) stack of weights, built from its upper
    triangle: R_i is Hermitian."""
    n_fits, n_phases, n_bins = weights.shape
    folded = (weights.reshape(-1, n_bins) @ windows).reshape(
        n_fits, n_phases, -1)
    upper = (np.einsum("ikt,kt->it", folded, rotations.real)
             + 1j * np.einsum("ikt,kt->it", folded, rotations.imag))
    d = math.isqrt(2 * windows.shape[1])
    rows, cols, _ = _upper_triangle(d)
    R = np.empty((n_fits, d, d), dtype=complex)
    R[:, cols, rows] = upper.conj()
    R[:, rows, cols] = upper
    return R


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


@dataclass(frozen=True, eq=False)
class _BinnedProblem:
    """One dataset's MaxLik problem: validated fit settings, the (phase,
    x-bin) cell of every sample and the folded POVM factors."""

    cutoff: FockCutoff
    efficiency_model: str
    max_iter: int
    tol_per_sample: float
    cells: np.ndarray       # flat cell index of each sample
    windows: np.ndarray     # (n_bins, d(d+1)/2) triangles of the W_b in use
    rotations: np.ndarray   # (n_phases, d(d+1)/2) triangles of rot_k

    def counts(self, samples=slice(None)) -> np.ndarray:
        """(n_phases, n_bins) count table of the samples at ``samples``."""
        shape = (len(self.rotations), len(self.windows))
        return np.bincount(self.cells[samples],
                           minlength=shape[0] * shape[1]).reshape(shape)

    def _update(self, rho: np.ndarray, freq: np.ndarray) -> tuple:
        """Clipped cell probabilities and R = sum_j (f_j/p_j) Pi_j of each
        fit; an empty cell has f_j = 0 and adds nothing."""
        probs = np.clip(_cell_probabilities(rho, self.windows, self.rotations),
                        1e-12, None)
        return probs, _likelihood_operator(freq / probs, self.windows,
                                           self.rotations)

    def fit(self, counts: np.ndarray) -> list:
        """Run the R-rho-R iteration on a (B, n_phases, n_bins) stack of
        count tables together. Each fit keeps its own stop test and leaves
        the running set when it stops.

        Returns one (rho, history, gain, stop_reason, gap_bound) per table.
        """
        d = self.cutoff.dimension
        n_fits = len(counts)
        freq = counts / counts.sum(axis=(1, 2), keepdims=True)
        diagonal = np.arange(d)
        rho = np.tile(np.eye(d, dtype=complex) / d, (n_fits, 1, 1))
        histories = [[] for _ in range(n_fits)]
        # the first gain is inf, above every accepted tolerance
        last = np.full(n_fits, -np.inf)
        gains = np.empty(n_fits)
        converged = np.zeros(n_fits, dtype=bool)
        running = np.arange(n_fits)
        for _ in range(self.max_iter):
            active = freq[running]
            probs, R = self._update(rho[running], active)
            ll = np.sum(active * np.log(probs), axis=(1, 2))
            gains[running] = ll - last[running]
            last[running] = ll
            for i, value in zip(running, ll.tolist()):
                histories[i].append(value)
            stop = gains[running] < self.tol_per_sample
            converged[running[stop]] = True
            running, R = running[~stop], R[~stop]
            if not running.size:
                break
            R[:, diagonal, diagonal] += 1e-12
            step = R @ rho[running] @ R
            step = (step + step.conj().swapaxes(1, 2)) / 2.0
            step /= np.trace(step, axis1=1, axis2=2).real[:, None, None]
            rho[running] = step

        # concavity of the log-likelihood bounds the per-sample gap to the
        # maximum by lambda_max(R) - 1 at the returned estimate (Glancy,
        # Knill & Girard, NJP 14, 095017, 2012); one non-finite fit must
        # not stop eigvalsh on the others
        _, R = self._update(rho, freq)
        finite = np.all(np.isfinite(R), axis=(1, 2))
        gap = np.full(n_fits, np.nan)
        gap[finite] = np.linalg.eigvalsh(R[finite])[:, -1] - 1.0
        return [(rho[i], histories[i], gains[i],
                 "converged" if converged[i] else "max_iterations", gap[i])
                for i in range(n_fits)]


def _binned_problem(data: HomodyneDataset, cutoff: FockCutoff,
                    efficiency_model: str, eta_detection: float,
                    storage_transmission: float, max_iter: int,
                    tol_per_sample: float) -> _BinnedProblem:
    """Validate maxlik_reconstruct's arguments and bin ``data``."""
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
    rows, cols, _ = _upper_triangle(d)
    phase_of = np.searchsorted(phases, np.round(data.thetas, 12))
    # bins are closed on the left, the last one on both sides; an x-bin no
    # sample falls in has f = 0 at every phase, adds nothing to R or the
    # likelihood, and is left out
    bins, bin_of = np.unique(
        np.minimum(np.searchsorted(edges, data.xs, side="right") - 1,
                   len(edges) - 2),
        return_inverse=True)
    return _BinnedProblem(
        cutoff=cutoff, efficiency_model=efficiency_model, max_iter=max_iter,
        tol_per_sample=tol_per_sample, cells=phase_of * len(bins) + bin_of,
        windows=_binned_povm(d, float(eta_total))[bins],
        rotations=np.stack([_phase_rotation(th, d)[rows, cols]
                            for th in phases]))


def _fit_result(problem: _BinnedProblem, rho: np.ndarray, history: list,
                gain: float, stop_reason: str,
                gap_bound: float) -> ReconstructionResult:
    """The ReconstructionResult of one finished fit; a non-finite estimate
    is a ConvergenceError."""
    if not np.all(np.isfinite(rho)):
        raise ConvergenceError(
            f"MaxLik estimate is not finite after {len(history)} iterations")
    return ReconstructionResult(
        rho_hat=DensityOperator(rho, problem.cutoff),
        iterations=len(history),
        final_likelihood_gain=float(gain),
        efficiency_model=problem.efficiency_model,
        likelihood_history=tuple(history),
        stop_reason=stop_reason,
        gap_bound=float(gap_bound),
    )


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
    Each Pi_j factors into a real symmetric window matrix and a phase
    rotation, so an iteration costs two real products with the
    (n_bins, d(d+1)/2) upper triangles of the window matrices and never
    forms the complex POVM stack.
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
            (under-determined problem), or a non-finite estimate.
        DomainError: unknown efficiency model, an efficiency it uses
            outside (0, 1], samples outside [-12, 12], max_iter < 1, or a
            tol_per_sample that is NaN or +inf.
    """
    problem = _binned_problem(data, cutoff, efficiency_model, eta_detection,
                              storage_transmission, max_iter, tol_per_sample)
    (outcome,) = problem.fit(problem.counts()[None])
    return _fit_result(problem, *outcome)


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

    Each resample redraws the dataset with replacement and is fitted as
    maxlik_reconstruct would fit it; every statistic is evaluated on the
    resulting ReconstructionResult. The data are validated and binned
    once; a resample is the count table of its redrawn cells, and
    RESAMPLE_BLOCK resamples are fitted together. Per-resample RNG
    streams are spawned from ``rng`` in resample order, so results are
    deterministic under a fixed master seed.

    Args:
        data: original dataset.
        n_resamples: >= MIN_RESAMPLES (50).
        statistics: mapping name -> callable(ReconstructionResult) -> float,
            e.g. fidelity to a target or a Wigner minimum.
        rng: master generator.
        **reconstruct_kwargs: maxlik_reconstruct's arguments after
            ``data`` (must include ``cutoff``).

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
    settings = inspect.signature(maxlik_reconstruct).bind(
        data, **reconstruct_kwargs)
    settings.apply_defaults()
    problem = _binned_problem(*settings.args)
    n = len(data)
    values = {name: [] for name in statistics}
    n_failed = 0
    for start in range(0, n_resamples, RESAMPLE_BLOCK):
        # spawning block by block continues the same child sequence
        streams = rng.spawn(min(RESAMPLE_BLOCK, n_resamples - start))
        counts = np.stack([problem.counts(stream.integers(0, n, size=n))
                           for stream in streams])
        for outcome in problem.fit(counts):
            try:
                result = _fit_result(problem, *outcome)
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
# file formats: every table file is one header line of comma-separated
# column names, then one line of comma-separated numbers per row

DATASET_HEADER = "theta,x"


def _write_csv(path, header: str, table, fmt="%.12g") -> None:
    """Write ``table``, a 2-D array or an iterable of them (so that a large
    table need never exist whole), row by row under ``header``; ``fmt`` is
    one format for every column or a list of one per column."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for block in [table] if isinstance(table, np.ndarray) else table:
            line = ",".join([fmt] * block.shape[1] if isinstance(fmt, str) else fmt) + "\n"
            fh.writelines(line % tuple(row) for row in block.tolist())


def _read_csv(path, what: str) -> tuple[list, np.ndarray]:
    """Header column names and numeric body of a table file; an unreadable,
    malformed or row-less file is a ConfigError naming ``what``."""
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            # a header-only file makes loadtxt warn; it is refused below
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                body = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed {what}: {exc}") from exc
    if body.size == 0:
        raise ConfigError(f"{path}: {what} is empty")
    return header, body


def save_dataset_csv(data: HomodyneDataset, path) -> None:
    _write_csv(path, DATASET_HEADER, np.column_stack([data.thetas, data.xs]))


def load_dataset_csv(path) -> HomodyneDataset:
    names, body = _read_csv(path, "dataset")
    header = ",".join(names)
    if header != DATASET_HEADER:
        raise ConfigError(
            f"{path}: expected header {DATASET_HEADER!r}, got {header!r}")
    if body.shape[1] != 2:
        raise ConfigError(
            f"{path}: expected 2 columns ({DATASET_HEADER}), got {body.shape[1]}")
    return HomodyneDataset(body[:, 0], body[:, 1])


def write_density_csv(rho: DensityOperator, path) -> None:
    """Density matrix as CSV with interleaved real/imaginary columns."""
    d = rho.dimension
    m = rho.matrix
    _write_csv(path, ",".join(f"re_{n},im_{n}" for n in range(d)),
               np.stack([m.real, m.imag], axis=2).reshape(d, 2 * d))


def read_density_csv(path) -> DensityOperator:
    header, body = _read_csv(path, "density-matrix file")
    if len(header) % 2 != 0:
        raise ConfigError(f"{path}: malformed density-matrix file")
    d = len(header) // 2
    if body.shape != (d, 2 * d):
        raise ConfigError(
            f"{path}: expected {d} rows x {2 * d} columns, got {body.shape}")
    mat = body[:, 0::2] + 1j * body[:, 1::2]
    return DensityOperator(mat, FockCutoff(d - 1)).validate()


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
