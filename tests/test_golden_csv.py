"""Harness CSV regression against committed golden tables.

The tables in tests/golden/ were produced by the harness before the
interference metrics were folded into one weighted form. Every value must
still agree to 9 significant digits (one unit in the last printed place),
with a 1e-12 absolute floor for numerically zero entries such as the signed
~1e-18 cooperative EIP.
"""

import math
from pathlib import Path

import pytest

from specshare.config import ScenarioConfig, Scheme
from specshare.harness import CSV_HEADER, ExperimentSpec, format_csv, run_compare

GOLDEN = Path(__file__).parent / "golden"
KEY_COLUMNS = 4
ATOL = 1e-12

GRIDS = {
    "scheme1": (Scheme.SCHEME_I, ["selfish", "noncoop", "coop"]),
    "scheme2": (Scheme.SCHEME_II, ["noncoop", "partial", "full"]),
}


def agree_9_digits(got: float, want: float) -> bool:
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    unit = 10.0 ** (math.floor(math.log10(abs(want))) - 8) if want else 0.0
    return abs(got - want) <= unit + ATOL


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_harness_grid_matches_golden(name):
    scheme, methods = GRIDS[name]
    spec = ExperimentSpec(cfg=ScenarioConfig(scheme=scheme), methods=methods,
                          sweep_var="p", sweep_values=[0.5, 1.0], seeds=[0, 1])
    got = format_csv(run_compare(spec)).splitlines()
    want = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8").splitlines()
    assert got[0] == want[0] == CSV_HEADER
    assert len(got) == len(want) == 1 + 2 * 2 * len(methods)
    for g, w in zip(got[1:], want[1:]):
        g_cells, w_cells = g.split(","), w.split(",")
        assert g_cells[:KEY_COLUMNS] == w_cells[:KEY_COLUMNS]
        for column, (a, b) in enumerate(zip(g_cells[KEY_COLUMNS:], w_cells[KEY_COLUMNS:])):
            assert agree_9_digits(float(a), float(b)), (w_cells[:KEY_COLUMNS], column, a, b)


def test_agreement_rule():
    assert agree_9_digits(1.23456789, 1.23456790)
    assert not agree_9_digits(1.23456789, 1.23456792)
    assert agree_9_digits(-4.1e-18, 5.3e-18)
    assert not agree_9_digits(2e-12, 0.0)
    assert agree_9_digits(math.nan, math.nan)
    assert not agree_9_digits(0.0, math.nan)
