"""Reference computations the benchmark checks catbreed's outputs against.

Written from the physics with numpy/scipy only; nothing here calls catbreed.
Quadrature convention as in the package: x = (a + a^dag)/sqrt(2).
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, linalg, special


def window_integral(n: int, half_width: float) -> float:
    """Pi_nn = integral of psi_n(x)^2 over [-half_width, half_width]."""
    if n == 0:
        return float(special.erf(half_width))
    norm = 1.0 / (math.sqrt(math.pi) * 2.0 ** n * math.factorial(n))
    value, _ = integrate.quad(
        lambda x: norm * special.eval_hermite(n, x) ** 2 * math.exp(-x * x),
        -half_width, half_width, epsabs=1e-14, epsrel=1e-12, limit=200)
    return value


def herald_probability(f_a: float, f_b: float, half_width: float) -> float:
    """Acceptance probability of an ideal-detector window on mode b after a
    balanced beam splitter, for inputs f|1><1| + (1-f)|0><0|.

    |1,1> leaves as (|2,0> - |0,2>)/sqrt(2), |1,0> and |0,1> as an equal
    split of one photon, |0,0> as vacuum; with f_a = f_b = f this is
    1/2 f^2 (Pi00+Pi22) + f(1-f)(Pi00+Pi11) + (1-f)^2 Pi00.
    """
    p00, p11, p22 = (window_integral(n, half_width) for n in range(3))
    return (f_a * f_b * 0.5 * (p00 + p22)
            + (f_a * (1.0 - f_b) + f_b * (1.0 - f_a)) * 0.5 * (p00 + p11)
            + (1.0 - f_a) * (1.0 - f_b) * p00)


def gap_probabilities(p_trip: float, n_min: int, n_max: int) -> np.ndarray:
    """Geometric herald-gap probabilities (1-p)^(n-1) p for n_min..n_max."""
    n = np.arange(n_min, n_max + 1)
    return np.array([(1.0 - p_trip) ** (k - 1) * p_trip for k in n])


def window_probability(p_trip: float, n_min: int, n_max: int) -> float:
    """Direct sum of the gap probabilities inside the storage window."""
    return float(math.fsum(gap_probabilities(p_trip, n_min, n_max)))


def mean_condition_probability(photon_fidelity: float, per_trip: float,
                               p_trip: float, n_min: int, n_max: int,
                               half_width: float) -> float:
    """Gap-weighted herald probability of single-photon inputs (w2 = 0) with
    an ideal detector; the first photon lost its share over n trips."""
    weights = gap_probabilities(p_trip, n_min, n_max)
    weights = weights / weights.sum()
    probs = [herald_probability(photon_fidelity * per_trip ** n,
                                photon_fidelity, half_width)
             for n in range(n_min, n_max + 1)]
    return float(np.dot(weights, probs))


def closed_form_rate(f_herald: float, f_rep: float, beta_elec: float,
                     photon_fidelity: float, per_trip: float, n_min: int,
                     n_max: int, half_width: float) -> float:
    """f_herald / 3 * beta * mean herald probability * window probability."""
    p_trip = f_herald / f_rep
    p_mean = mean_condition_probability(photon_fidelity, per_trip, p_trip,
                                        n_min, n_max, half_width)
    return f_herald / 3.0 * beta_elec * p_mean * window_probability(
        p_trip, n_min, n_max)


def quadrature_second_moment(rho: np.ndarray, theta: float) -> float:
    """Tr(rho x_theta^2) with x_theta = (a e^{-i theta} + a^dag e^{i theta})/sqrt(2)."""
    d = rho.shape[0]
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    x = (a * np.exp(-1j * theta) + a.T * np.exp(1j * theta)) / math.sqrt(2.0)
    return float(np.real(np.trace(rho @ x @ x)))


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 via scipy.linalg.sqrtm."""
    with warnings.catch_warnings():
        # states of low rank make sqrtm warn about singular input
        warnings.simplefilter("ignore", linalg.LinAlgWarning)
        root = linalg.sqrtm(rho)
        inner = linalg.sqrtm(root @ sigma @ root)
    return float(np.real(np.trace(inner)) ** 2)


def truncate(rho: np.ndarray, dimension: int) -> np.ndarray:
    """Top-left block of rho, renormalized to unit trace."""
    block = rho[:dimension, :dimension]
    return block / np.real(np.trace(block))


def grid_integral(w: np.ndarray, xs: np.ndarray, ps: np.ndarray) -> float:
    """Trapezoid integral of a grid sampled on the outer product xs x ps."""
    return float(np.trapezoid(np.trapezoid(w, ps, axis=1), xs))


def parity(populations: np.ndarray) -> float:
    """sum_n (-1)^n rho_nn, which equals pi * W(0, 0)."""
    signs = np.where(np.arange(len(populations)) % 2 == 0, 1.0, -1.0)
    return float(np.dot(signs, populations))
