import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from catbreed import DensityOperator, FockCutoff, hermite_functions
from catbreed.optics import _loss_amplitudes, _smear_povm

# Hypothesis caches the constants it reads from local source files when it
# collects tests, even with no example database; keep that cache out of the
# checkout, so that the tests write no .hypothesis/ directory
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "catbreed-hypothesis")


@pytest.fixture
def cutoff20():
    return FockCutoff(20)


def random_density(rng: np.random.Generator, dimension: int,
                   rank: int | None = None) -> DensityOperator:
    """Random density operator of the given rank, full rank by default
    (Wishart construction)."""
    shape = (dimension, dimension if rank is None else rank)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    mat = a @ a.conj().T
    mat /= np.real(np.trace(mat))
    return DensityOperator(mat, FockCutoff(dimension - 1))


def random_pure(rng: np.random.Generator, dimension: int, support: int | None = None):
    """Random pure-state amplitude vector, optionally band-limited."""
    amps = rng.normal(size=dimension) + 1j * rng.normal(size=dimension)
    if support is not None:
        amps[support:] = 0.0
    return amps / np.linalg.norm(amps)


def reference_window_matrix(dimension: int, lo: float, hi: float) -> np.ndarray:
    """Oracle: Pi_mn = int_lo^hi psi_m psi_n dx by composite Gauss-Legendre,
    panels of width <= 0.25 with 24 nodes each, the rule the closed-form
    antiderivative replaced. Finite windows only."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    panels = max(2, int(np.ceil((hi - lo) / 0.25)))
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    xs = (half[:, None] * nodes[None, :] + mid[:, None]).ravel()
    ws = (half[:, None] * weights[None, :]).ravel()
    psi = hermite_functions(dimension - 1, xs)
    return (psi * ws) @ psi.T


def smear_povm(pi: np.ndarray, eta: float) -> np.ndarray:
    """The adjoint loss map at transmission ``eta`` on a POVM element, as
    its callers apply it: the identity at eta = 1."""
    if eta == 1.0:
        return pi
    return _smear_povm(pi, _loss_amplitudes(eta, len(pi)))
