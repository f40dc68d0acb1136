"""Every test starts with an empty design memo (specshare.covdesign keeps
the solves of its last problem), so a test that replaces a solver part
sees a fresh solve and not one memoized by an earlier test."""

import pytest

from specshare import covdesign


@pytest.fixture(autouse=True)
def empty_design_memo(monkeypatch):
    monkeypatch.setattr(covdesign, "_memo", None)


@pytest.fixture
def dual_steps(monkeypatch):
    """The lambda1 of every dual step (covdesign._DualKernel.step call) in
    the test, in order."""
    points = []
    step = covdesign._DualKernel.step
    monkeypatch.setattr(covdesign._DualKernel, "step",
                        lambda self, lambda1, C: points.append(lambda1) or step(self, lambda1, C))
    return points
