"""One hypothesis profile for the whole suite: every property test draws the
same examples on every run, and none has a deadline. Also the fixture that
drives training into its non-finite-parameter guard."""

import sys

import numpy as np
import pytest
from hypothesis import settings

from docmrt import mrt

settings.register_profile("docmrt", derandomize=True, deadline=None)
settings.load_profile("docmrt")


@pytest.fixture
def overflowing_gradients(monkeypatch):
    """Every micro-batch estimate keeps its finite risk but gets the gradient
    sys.float_info.max in every coordinate, so an update at learning rate 2
    leaves theta infinite while the risk stays finite."""
    estimate = mrt._micro_batch_estimate

    def overflowing(*args):
        est = estimate(*args)
        grad = np.full_like(est.grad, sys.float_info.max)
        return mrt.RiskEstimate(est.risk, grad)

    monkeypatch.setattr(mrt, "_micro_batch_estimate", overflowing)
