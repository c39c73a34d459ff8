import numpy as np
import pytest

from scoreshift import (
    MeasurementDataset,
    OperatorSampler,
    RightBasis,
    SigmaGrid,
    estimate_projection_stats,
    sample,
)
from scoreshift.priors import gaussian_pair, triangle_pair
from scoreshift.rng import stream


@pytest.fixture(scope="session")
def toy_pair():
    return triangle_pair()


@pytest.fixture(scope="session")
def gauss_pair():
    return gaussian_pair()


@pytest.fixture(scope="session")
def toy_grid():
    return SigmaGrid(0.01, 1.0, 48)


@pytest.fixture(scope="session")
def wide_grid():
    return SigmaGrid(1e-2, 1e3, 256)


def count_qr(monkeypatch):
    """Wrap np.linalg.qr for one test; return the list each call appends its shape to."""
    calls = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


def rising_eval_loss(monkeypatch):
    """Make adaptation's evaluation loss rise at every step (1, 2, 3, ...), the finite
    streak its divergence guard counts; return the list of loss values handed out."""
    from scoreshift import adaptation

    losses = []

    def rising(*args):
        losses.append(float(len(losses) + 1))
        return losses[-1]

    monkeypatch.setattr(adaptation, "_pack_loss", rising)
    return losses


def mask_sampler(dim=10, keep_prob=0.8, base_seed=5, basis=None):
    return OperatorSampler(
        kind="coordinate-mask",
        dim=dim,
        basis=basis if basis is not None else RightBasis("identity", dim),
        base_seed=base_seed,
        keep_prob=keep_prob,
    )


@pytest.fixture(scope="session")
def toy_masked_data(toy_pair):
    """Shared 0.8-keep masked dataset of 400 toy draws, with its E[P]."""
    p, _ = toy_pair
    sampler = mask_sampler(dim=p.dim, keep_prob=0.8, base_seed=5)
    draws = sample(p, 400, stream(17, "data-x"))
    data = MeasurementDataset.from_samples(sampler, draws, seed=17)
    return sampler, estimate_projection_stats(data.support), draws, data
