"""Every test starts with an empty scenario memo (specshare.scenario keeps
the draws of its last config, the whitened channels B among them, and the
designs solved on them), so a test that replaces a solver part, a generator
or the whitening sees fresh draws and a fresh solve, not ones kept from an
earlier test."""

import pytest

from specshare import covdesign, scenario


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(scenario, "_memo", None)


@pytest.fixture
def dual_steps(monkeypatch):
    """The lambda1 of every dual step (covdesign._DualKernel.step call) in
    the test, in order."""
    points = []
    step = covdesign._DualKernel.step
    monkeypatch.setattr(covdesign._DualKernel, "step",
                        lambda self, lambda1, C: points.append(lambda1) or step(self, lambda1, C))
    return points
