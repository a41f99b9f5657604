import dataclasses

import numpy as np
import pytest

from mdalbench.engine import ExperimentConfig
from mdalbench.model import AspMtlModel, ModelConfig
from mdalbench.nncore import RngStream


def finite_difference(loss_fn, array, h=1e-5):
    """Central-difference gradient of a scalar loss w.r.t. one array."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + h
        up = loss_fn()
        array[idx] = orig - h
        down = loss_fn()
        array[idx] = orig
        grad[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return grad


def assert_grad_close(analytic, numeric, rel_tol=1e-4):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-2)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < rel_tol, f"max relative gradient error {rel.max():.3e}"


def with_defaults(cls, **values):
    """cls(**values), where each field of cls that is an ExperimentConfig key
    and that values leaves out takes the key's default from that key's field,
    so that no test declares a default of its own."""
    own = {f.name for f in dataclasses.fields(cls)}
    defaults = {
        f.name: f.default
        for f in dataclasses.fields(ExperimentConfig)
        if f.name in own and "section" in f.metadata
    }
    return cls(**{**defaults, **values})


def tiny_model(gen_seed=0, input_dim=3, shared=4, private=3, classes=(2, 3),
               lam_adv=0.05, lam_diff=0.0):
    config = with_defaults(
        ModelConfig,
        input_dim=input_dim,
        num_classes=classes,
        shared_hidden=shared,
        private_hidden=private,
        lam_adv=lam_adv,
        lam_diff=lam_diff,
    )
    return AspMtlModel.init(config, RngStream(gen_seed))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
