"""Every test starts with an empty design memo (specshare.covdesign keeps
the solves of its last problem), so a test that replaces a solver part
sees a fresh solve and not one memoized by an earlier test."""

import pytest

from specshare import covdesign


@pytest.fixture(autouse=True)
def empty_design_memo(monkeypatch):
    monkeypatch.setattr(covdesign, "_memo", None)
