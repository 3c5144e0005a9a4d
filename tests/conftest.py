import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from catbreed import DensityOperator, FockCutoff

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
