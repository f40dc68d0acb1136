"""Every test starts with empty memos (specshare.covdesign keeps the designs
of its last channels, specshare.scenario the draws of its last config, the
whitened channels B among them), so a test that replaces a solver part, a
generator or the whitening sees a fresh solve and fresh draws, not ones
memoized by an earlier test."""

import pytest

from specshare import covdesign, scenario


@pytest.fixture(autouse=True)
def empty_memos(monkeypatch):
    monkeypatch.setattr(covdesign, "_memo", (None, {}))
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
