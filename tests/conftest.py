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
    """Every micro-batch estimate of an update keeps its finite risk but gets the
    gradient sys.float_info.max in every coordinate, so an update at learning
    rate 2 leaves theta infinite while the risk stays finite."""
    estimates = mrt._update_estimates

    def overflowing(*args):
        return [
            mrt.RiskEstimate(est.risk, np.full_like(est.grad, sys.float_info.max))
            for est in estimates(*args)
        ]

    monkeypatch.setattr(mrt, "_update_estimates", overflowing)
