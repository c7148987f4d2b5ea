import hypothesis
import numpy as np
import pytest
import scipy.sparse as sp

from polyfactor import data, refit
from polyfactor.data import make_dataset
from polyfactor.gradients import GradientOperator

hypothesis.settings.register_profile("ci", max_examples=60, deadline=None)
hypothesis.settings.register_profile("fast", max_examples=15, deadline=None)
hypothesis.settings.load_profile("ci")


def set_fista(monkeypatch, max_iter, tol):
    """Run the FISTA refits with another iteration cap and tolerance."""
    monkeypatch.setattr(refit, "FISTA_MAX_ITER", max_iter)
    monkeypatch.setattr(refit, "FISTA_TOL", tol)


def csr_twin(ds, monkeypatch):
    """A copy of ``ds`` whose refits and refreshes multiply the CSR X and X∘X,
    whatever ``data.prefer_dense`` says of its density."""
    twin = make_dataset(ds.X, ds.y, ds.m)
    with monkeypatch.context() as patched:
        patched.setattr(data, "prefer_dense", lambda X: False)
        assert twin.Xmul is twin.X and twin.X2mul is twin.X2
    return twin


def random_operator(rng, n, d, m, kind="pn", density=1.0, one_hot=False):
    """Gradient operator over random data with directly injected gradients.

    ``one_hot`` gives ratings-shaped rows instead: the columns split into a
    user and an item field, and each row holds a single 1 in each field.
    """
    if one_hot:
        X = np.zeros((n, d))
        X[np.arange(n), rng.integers(0, d // 2, n)] = 1.0
        X[np.arange(n), rng.integers(d // 2, d, n)] = 1.0
    else:
        X = rng.standard_normal((n, d))
    if density < 1.0:
        X *= rng.random((n, d)) < density
    ds = make_dataset(sp.csr_matrix(X), np.ones(n, dtype=np.int64), m)
    op = GradientOperator(ds, kind, n_outputs=m)
    op.set_gradients(rng.standard_normal((n, m)))
    return op, ds


# (n, d, m, density, one_hot, storage): one shape for each storage of the rule
SHAPES = [(5, 4, 3, 1.0, False, "free"),
          (40, 4, 3, 0.7, False, "dense"),
          (20, 8, 3, 1.0, True, "sparse")]


def shaped_operator(rng, shape, kind):
    n, d, m, density, one_hot, storage = shape
    op, _ = random_operator(rng, n, d, m, kind=kind, density=density, one_hot=one_hot)
    assert op.storage == storage
    return op


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
