"""KKT conditions of the weighted-EIP design on small random instances."""

import numpy as np
import pytest

from specshare.covdesign import solve_weighted_eip
from specshare.linalg import crandn
from specshare.streams import stream

from oracles import dense_noise, selfish, verify_solution, whiten

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def instance(seed, L):
    """0/1 weights, a 2 x 2 channel H, a 3 x 2 radar channel and L noise
    covariances R_wl = 0.1 I + g_l g_l^H, dense."""
    rng = stream(seed, "kkt")
    H = crandn(rng, 2, 2)
    G2 = crandn(rng, 3, 2)
    g = crandn(rng, L, 2)
    w = (rng.uniform(size=(L, 3)) < 0.6).astype(float)
    return w, H, G2, g


@hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
@hypothesis.given(seed=st.integers(0, 10_000), L=st.integers(1, 4),
                  C=st.floats(0.25, 3.0), headroom=st.floats(0.01, 3.0))
def test_verify_solution_reports_kkt(seed, L, C, headroom):
    weights, H, G2, g = instance(seed, L)
    B = whiten(H, g, 1.0, 0.1)
    # Above the selfish (minimum) power the target is feasible; small
    # headroom makes the budget bind, large headroom leaves it slack.
    P_t = selfish(B, C, np.inf, G2).consumed_power * (1.0 + headroom)
    sol = solve_weighted_eip(weights, B, G2, P_t, C, {})
    # Checked against H and the dense noise, not against B.
    report = verify_solution(sol, H, dense_noise(g, 1.0, 0.1), G2, P_t, C)
    assert report["psd_ok"]
    assert report["power_feasible"]
    assert report["capacity_active"]
    # lambda1 (P_t - power) vanishes to the bisection's resolution: lambda1
    # is its lowest grid point, or the power is within a grid step of P_t.
    assert report["slackness_residual"] <= 1e-8 * max(1.0, sol.lambda1) * P_t
