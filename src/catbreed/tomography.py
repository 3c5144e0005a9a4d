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
import itertools
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError
from .fock import (DensityOperator, FockCutoff, _phase_rotation,
                   _support_dimension, hermite_functions)
from .optics import _loss_amplitudes, _smear_povm, _window_antiderivative

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


# a `catbreed sample` run peaks at about 160 bytes per sample, so the largest
# request this cap accepts stays below 0.9 GB
MAX_SAMPLES = 5_000_000


def _check_sample_request(n_phases: int, total_count: int) -> None:
    """Refuse, before anything is allocated, too few samples or too many."""
    if not 1 <= n_phases <= total_count <= MAX_SAMPLES:
        raise DomainError(f"need at least one phase, one sample per phase and at most "
                          f"{MAX_SAMPLES} samples, got {total_count} at {n_phases} phases")


def uniform_phases(n_phases: int) -> np.ndarray:
    """n equally spaced homodyne phases covering [0, pi), no more than MAX_SAMPLES."""
    _check_sample_request(n_phases, n_phases)
    return np.arange(n_phases) * np.pi / n_phases


def sample_homodyne_phases(rho: DensityOperator, phases: np.ndarray,
                           total_count: int, rng: np.random.Generator,
                           phase_noise_sigma: float = 0.0) -> HomodyneDataset:
    """Split ``total_count`` samples, at least one per phase and at most
    MAX_SAMPLES, across the finite ``phases`` (earlier phases take the
    remainder) and draw each phase's share by inverting its cumulative
    marginal on a fixed grid (span [-12, 12], 4096 points, linear
    interpolation) at ``rng.random`` uniforms; the request, the phases and
    sigma are checked before anything is drawn.

    Gaussian jitter of the measured phase, ``phase_noise_sigma`` radians
    (finite, >= 0) of standard deviation, averages each marginal into that
    of the dephased state rho_mn exp(-sigma^2 (n - m)^2 / 2): the jitter is
    exact, draws the noiseless run's uniforms and leaves the recorded
    phases as they are. At sigma = 0 the factor is exactly 1.
    """
    phases = np.asarray(phases, dtype=float)
    _check_sample_request(len(phases), total_count)
    finite = np.isfinite(phases)
    if not finite.all():
        raise DomainError(f"homodyne phase must be finite, got "
                          f"{phases[np.argmin(finite)]}")
    if not 0.0 <= phase_noise_sigma < np.inf:
        raise DomainError(f"phase noise sigma must be finite and >= 0, "
                          f"got {phase_noise_sigma}")
    n = np.arange(rho.dimension)
    # the factor is 0.0 past sigma |n - m| = 40; the clip keeps the square finite
    spread = np.minimum(phase_noise_sigma * abs(n[:, None] - n), 40.0)
    dephased = DensityOperator(rho.matrix * np.exp(-0.5 * spread ** 2), rho.cutoff)
    base, extra = divmod(total_count, len(phases))
    counts = base + (np.arange(len(phases)) < extra)
    xs, start = np.empty(total_count), 0
    for theta, count in zip(phases.tolist(), counts.tolist()):
        xg, cdf = _inverse_cdf_table(dephased, theta)   # 64 kB, one at a time
        xs[start:start + count] = np.interp(rng.random(count), cdf, xg)
        start += count
    return HomodyneDataset(np.repeat(phases, counts), xs)


def sample_homodyne(rho: DensityOperator, theta: float, count: int,
                    rng: np.random.Generator,
                    phase_noise_sigma: float = 0.0) -> HomodyneDataset:
    """``count`` samples at the one phase ``theta``: sample_homodyne_phases
    at [theta], with its checks and its MAX_SAMPLES cap."""
    return sample_homodyne_phases(rho, [theta], count, rng, phase_noise_sigma)


# ---------------------------------------------------------------------------
# binned POVM construction

N_X_BINS = 200          # uniform bins across [-6, 6]
X_BIN_SPAN = 6.0        # plus one tail bin out to the grid edge on each side
HALF_BINS = N_X_BINS // 2 + 1   # the first x >= 0 bin; bin 201 - j mirrors bin j
# fits kept live together: results depend on the batch at round-off, so the
# width is a constant and equal seeds give equal bits on every machine
RESAMPLE_BLOCK = 16


def _bin_edges() -> np.ndarray:
    inner = np.linspace(-X_BIN_SPAN, X_BIN_SPAN, N_X_BINS + 1)
    return np.concatenate([[-GRID_SPAN], inner, [GRID_SPAN]])


@lru_cache(maxsize=8)
def _binned_povm(dimension: int, eta_total: float) -> np.ndarray:
    """Real window matrices of the x >= 0 bins for binned MaxLik, offset-major:
    Wd[delta, m, b] = W_b[m, m + delta], zero where m + delta >= d.

    W_b, symmetric, is the window integral over x-bin HALF_BINS + b at phase
    0, smeared by the loss adjoint when eta_total < 1. The POVM element of
    (phase k, bin) is W * _phase_rotation(theta_k, d), e^{i theta_k delta} on
    offset delta: loss is phase covariant, so no phase enters the cache key.
    The edges mirror, psi_n(-x) = (-1)^n psi_n(x) and loss keeps parity, so
    bin HALF_BINS - 1 - b is (-1)^delta times bin b and is not stored. One
    walk over the edges evaluates the closed-form antiderivative A of
    psi_m psi_n once per edge; W_b = A(hi) - A(lo).
    """
    d = dimension
    edges = _bin_edges()[HALF_BINS:]
    windows = np.empty((d, d, len(edges) - 1))
    # [delta, m] -> (m, m + delta) of a zero-padded d x 2d copy of W_b
    skew = np.arange(d)[:, None] + (2 * d + 1) * np.arange(d)
    padded = np.zeros((d, 2 * d))
    loss = _loss_amplitudes(eta_total, d).real if eta_total < 1.0 else None
    below = _window_antiderivative(d, edges[0])
    for b, edge in enumerate(edges[1:]):
        above = _window_antiderivative(d, edge)
        padded[:, :d] = above - below if loss is None else _smear_povm(above - below, loss)
        windows[:, :, b] = padded.ravel()[skew]
        below = above
    windows.setflags(write=False)
    return windows


@lru_cache(maxsize=2)
def _offset_indices(dimension: int, n_fits: int) -> tuple:
    """Flat positions, in a stack of n_fits d x d complex matrices viewed as
    floats, of (Re, Im) of entry (m, m + delta) and of its mirror
    (m + delta, m), in [delta, part, fit, m] order. Where m + delta >= d the
    gather reads entry (m, d - 1), which meets a zero window, and the
    scatters, and the mirror's on the diagonal, write a spare last slot."""
    d = dimension
    delta, part, fit, m = (np.arange(d)[:, None, None, None],
                           np.arange(2)[:, None, None],
                           2 * d * d * np.arange(n_fits)[:, None], np.arange(d))
    n = m + delta
    spare = 2 * d * d * n_fits
    gather = fit + 2 * (d * m + np.minimum(n, d - 1)) + part
    upper = np.where(n < d, fit + 2 * (d * m + n) + part, spare)
    lower = np.where((n < d) & (delta > 0), fit + 2 * (d * n + m) + part, spare)
    return gather.ravel(), upper.ravel(), lower.ravel()


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
    """One dataset's MaxLik problem: validated fit settings, the (mirror,
    phase, x-bin) cell of every sample and the factors of the POVM.

    Rows of a count or probability table run over the phases k at the base
    bins (x >= 0), then over them at the mirror bins; columns over the base
    bins in use."""

    cutoff: FockCutoff
    efficiency_model: str
    max_iter: int
    tol_per_sample: float
    cells: np.ndarray       # flat cell index of each sample
    forward: np.ndarray     # (d, d, n_bins) Wd in use, offsets > 0 doubled
    backward: np.ndarray    # (d, n_bins, d) Wd in use, transposed
    phases: np.ndarray      # (2 n_phases, 2d) cos, sin(theta_k delta), then x (-1)^delta

    def counts(self, samples=slice(None)) -> np.ndarray:
        """(2 n_phases, n_bins) count table of the samples at ``samples``."""
        shape = (len(self.phases), self.forward.shape[2])
        return np.bincount(self.cells[samples],
                           minlength=shape[0] * shape[1]).reshape(shape)

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        """p[row, i, b] = Tr(Pi rho_i) of every cell, for a (B, d, d) stack
        of Hermitian rho_i: the sum over the upper triangle of
        Re(e^{i theta_k delta} conj(rho_i[m, m + delta])) W_b[m, m + delta],
        off-diagonal entries counted twice."""
        d, n_fits = self.cutoff.dimension, len(rho)
        gather, _, _ = _offset_indices(d, n_fits)
        u = np.ascontiguousarray(rho).view(float).ravel().take(gather)
        y = u.reshape(d, 2 * n_fits, d) @ self.forward
        return (self.phases @ y.reshape(2 * d, -1)).reshape(
            len(self.phases), n_fits, -1)

    def likelihood_operator(self, weights: np.ndarray) -> np.ndarray:
        """R_i = sum over cells of weights[row, i, b] Pi_(row, b), for
        weights shaped as ``probabilities`` returns; R_i is Hermitian and
        built from its upper triangle."""
        d, n_fits = self.cutoff.dimension, weights.shape[1]
        _, upper, lower = _offset_indices(d, n_fits)
        z = self.phases.T @ weights.reshape(len(self.phases), -1)
        r = (z.reshape(d, 2 * n_fits, -1) @ self.backward).reshape(d, 2, -1)
        floats = np.empty(2 * d * d * n_fits + 1)      # one spare slot
        floats[lower] = (r * np.array([[1.0], [-1.0]])).ravel()
        floats[upper] = r.ravel()
        return floats[:-1].view(complex).reshape(n_fits, d, d)

    def fit(self, tables):
        """Run the R-rho-R iteration on each count table of the iterable
        ``tables``, with up to RESAMPLE_BLOCK fits live: a fit that stops
        frees its slot for the next table. Each fit keeps its own stop test.

        Yields (index, rho, history, gain, stop_reason, gap_bound) as each
        fit stops, index being the table's position in ``tables``.
        """
        d = self.cutoff.dimension
        queue = enumerate(tables)
        diagonal = np.arange(d)
        live = []               # [index, history, last gain] of each live fit
        rho = np.empty((0, d, d), dtype=complex)
        freq = np.empty((len(self.phases), 0, self.forward.shape[2]))
        while True:
            new = list(itertools.islice(queue, RESAMPLE_BLOCK - len(live)))
            if new:
                live += [[index, [], np.inf] for index, _ in new]
                rho = np.concatenate([rho, np.broadcast_to(
                    np.eye(d, dtype=complex) / d, (len(new), d, d))])
                freq = np.concatenate([freq, np.stack(
                    [table / table.sum() for _, table in new], axis=1)], axis=1)
            if not live:
                return
            probs = np.maximum(self.probabilities(rho), 1e-12)
            R = self.likelihood_operator(freq / probs)
            ll = np.sum(freq * np.log(probs), axis=(0, 2))
            reasons = []
            for slot, value in zip(live, ll.tolist()):
                history = slot[1]
                # a capped fit is evaluated once more, at the estimate it returns
                if len(history) == self.max_iter:
                    reasons.append("max_iterations")
                    continue
                # the first gain is inf, above every accepted tolerance
                slot[2] = value - (history[-1] if history else -np.inf)
                history.append(value)
                reasons.append("converged" if slot[2] < self.tol_per_sample else None)
            stop = np.array([reason is not None for reason in reasons])
            if stop.any():
                for s in np.flatnonzero(stop):
                    # concavity of the log-likelihood bounds the per-sample
                    # gap to the maximum by lambda_max(R) - 1 at the returned
                    # estimate (Glancy, Knill & Girard, NJP 14, 095017, 2012)
                    gap = (np.linalg.eigvalsh(R[s])[-1] - 1.0
                           if np.all(np.isfinite(R[s])) else np.nan)
                    index, history, gain = live[s]
                    yield index, rho[s], history, gain, reasons[s], gap
                live = [slot for slot, kept in zip(live, ~stop) if kept]
                rho, R, freq = rho[~stop], R[~stop], freq[:, ~stop]
            R[:, diagonal, diagonal] += 1e-12
            step = R @ rho @ R
            # the Hermitian part over its trace; the halving cancels exactly
            step += step.conj().swapaxes(1, 2)
            rho = step / np.trace(step, axis1=1, axis2=2).real[:, None, None]


def _binned_problem(data: HomodyneDataset, cutoff: FockCutoff,
                    efficiency_model: str, eta_detection: float,
                    storage_transmission: float, max_iter: int,
                    tol_per_sample: float) -> _BinnedProblem:
    """Validate maxlik_reconstruct's arguments and bin ``data``."""
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral):
        raise DomainError(f"max_iter must be an integer, got {max_iter!r}")
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
    phase_of = np.searchsorted(phases, np.round(data.thetas, 12))
    # bins are closed on the left, the last one on both sides; a base bin
    # no sample falls in, nor in its mirror, has f = 0 in every cell, adds
    # nothing to R or the likelihood, and is left out
    x_bin = np.minimum(np.searchsorted(edges, data.xs, side="right") - 1,
                       len(edges) - 2)
    mirrored = x_bin < HALF_BINS
    bins, bin_of = np.unique(
        np.where(mirrored, HALF_BINS - 1 - x_bin, x_bin - HALF_BINS),
        return_inverse=True)
    windows = _binned_povm(d, float(eta_total))[:, :, bins]
    delta = np.arange(d)
    base = np.exp(1j * np.outer(phases, delta)).view(float)  # cos, sin per delta
    return _BinnedProblem(
        cutoff=cutoff, efficiency_model=efficiency_model,
        max_iter=int(max_iter), tol_per_sample=tol_per_sample,
        cells=(mirrored * len(phases) + phase_of) * len(bins) + bin_of,
        forward=windows * np.where(delta == 0, 1.0, 2.0)[:, None, None],
        backward=np.ascontiguousarray(windows.transpose(0, 2, 1)),
        phases=np.concatenate([base, base * np.repeat((-1.0) ** delta, 2)]))


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
    rotation that depends only on the diagonal offset n - m, and the bin at
    -x is the bin at x times (-1)^(n - m); so an iteration is a few real
    products with the offset-major windows of the x >= 0 bins and never
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
        max_iter: iteration cap, an integer >= 1.
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
            outside (0, 1], samples outside [-12, 12], a max_iter that is
            not an integer >= 1, or a tol_per_sample that is NaN or +inf.
    """
    problem = _binned_problem(data, cutoff, efficiency_model, eta_detection,
                              storage_transmission, max_iter, tol_per_sample)
    ((_, *outcome),) = problem.fit([problem.counts()])
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
    once; a resample is the count table of its redrawn cells, and up to
    RESAMPLE_BLOCK resamples are fitted together, the next one taking the
    slot of each that stops. Per-resample RNG streams are spawned from
    ``rng`` in resample order, so results are deterministic under a fixed
    master seed.

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
    # one child stream per resample, spawned as the fit loop takes it:
    # spawn(1) k times gives the streams spawn(k) gives
    tables = (problem.counts(rng.spawn(1)[0].integers(0, n, size=n))
              for _ in range(n_resamples))
    values = {name: np.empty(n_resamples) for name in statistics}
    fitted = np.zeros(n_resamples, dtype=bool)
    for index, *outcome in problem.fit(tables):
        try:
            result = _fit_result(problem, *outcome)
        except ConvergenceError:
            continue
        fitted[index] = True
        for name, statistic in statistics.items():
            values[name][index] = float(statistic(result))
    n_failed = int(np.count_nonzero(~fitted))
    if n_failed > 0.1 * n_resamples:
        raise ConvergenceError(
            f"bootstrap failed: {n_failed}/{n_resamples} resamples did not "
            f"reconstruct")
    out = {}
    for name, vals in values.items():
        arr = vals[fitted]
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
_ROWS_PER_WRITE = 8192   # rows that a table or event-log writer formats at a time


def _write_csv(path, header: str, table, fmt="%.12g") -> None:
    """Write ``table``, a 2-D array or an iterable of them (so that a large
    table need never exist whole), under ``header``, _ROWS_PER_WRITE rows
    at a time with one %; ``fmt`` is one format for every column or a list
    of one per column."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for block in [table] if isinstance(table, np.ndarray) else table:
            line = ",".join([fmt] * block.shape[1] if isinstance(fmt, str) else fmt) + "\n"
            for rows in np.split(block, range(_ROWS_PER_WRITE, len(block), _ROWS_PER_WRITE)):
                fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


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
