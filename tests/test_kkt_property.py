"""KKT conditions of the weighted-EIP design on small random instances."""

import numpy as np
import pytest

from specshare.covdesign import solve_weighted_eip
from specshare.interference import CommNoise
from specshare.linalg import crandn
from specshare.streams import stream

from oracles import selfish, verify_solution

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def instance(seed, L):
    """2 x 2 channel, 3 x 2 radar channel, L noise covariances
    0.1 I + g_l g_l^H and 0/1 weights."""
    rng = stream(seed, "kkt")
    H = crandn(rng, 2, 2)
    G2 = crandn(rng, 3, 2)
    noise = CommNoise(g=crandn(rng, L, 2), a=1.0, sigma_C2=0.1)
    w = (rng.uniform(size=(L, 3)) < 0.6).astype(float)
    return w, H, G2, noise


@hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
@hypothesis.given(seed=st.integers(0, 10_000), L=st.integers(1, 4),
                  C=st.floats(0.25, 3.0), headroom=st.floats(0.01, 3.0))
def test_verify_solution_reports_kkt(seed, L, C, headroom):
    weights, H, G2, noise = instance(seed, L)
    # Above the selfish (minimum) power the target is feasible; small
    # headroom makes the budget bind, large headroom leaves it slack.
    P_t = selfish(H, noise, C, np.inf, G2).consumed_power * (1.0 + headroom)
    sol = solve_weighted_eip(weights, H, G2, noise, P_t, C)
    report = verify_solution(sol, H, G2, noise, P_t, C)
    assert report["psd_ok"]
    assert report["power_feasible"]
    assert report["capacity_active"]
    # lambda1 (P_t - power) vanishes to the bisection's resolution: lambda1
    # is its lowest grid point, or the power is within a grid step of P_t.
    assert report["slackness_residual"] <= 1e-8 * max(1.0, sol.lambda1) * P_t
