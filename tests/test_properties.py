"""Properties of run_compare over random configs: 1 to 6 antennas per side,
L up to 11 symbols, both schemes, every method a scheme accepts (joint
included), with and without recovery trials.

- A draw with L < M_tR, which no seed can run, is a ConfigError when its
  config is built; every other draw is a valid config.

- Every row meets the design's post-conditions with nonnegative eip and
  tip, or carries the message of a SpecshareError (the harness's other row
  error, LinAlgError, propagates here).
- Wherever both rows succeed, EIP orders coop <= noncoop, full <= partial
  and joint <= coop or full, and TIP orders noncoop <= selfish.
- A repeated run prints the same bytes.
- format_config writes text that parse_config reads back to the same
  config, also where fields hold NumPy scalars.
"""

import numpy as np
import pytest

from specshare import harness
from specshare.config import (ConfigError, ScenarioConfig, Scheme, SpecshareError, format_config,
                              parse_config)
from specshare.harness import ExperimentSpec, format_csv, run_compare

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

METHODS = {
    Scheme.SCHEME_I: ["selfish", "noncoop", "coop", "joint"],
    Scheme.SCHEME_II: ["selfish", "noncoop", "partial", "full", "joint"],
}
# (lower, upper, metric): the lower method's metric is at most the upper's.
ORDERINGS = [("coop", "noncoop", "eip"), ("full", "partial", "eip"), ("joint", "coop", "eip"),
             ("joint", "full", "eip"), ("noncoop", "selfish", "tip")]


def log_uniform(low, high):
    """10^x for x uniform in [low, high]."""
    return st.floats(low, high).map(lambda x: float(10.0 ** x))


@st.composite
def configs(draw):
    """A config's fields; build() makes the config."""
    antennas = st.integers(1, 6)
    return dict(
        M_tR=draw(antennas), M_rR=draw(antennas), M_tC=draw(antennas), M_rC=draw(antennas),
        L=draw(st.integers(1, 11)), scheme=draw(st.sampled_from(list(Scheme))),
        p=draw(st.floats(0.05, 1.0)), C=draw(st.floats(0.0, 20.0)),
        P_t=draw(log_uniform(-1.0, 2.0)), sigma_C2=draw(log_uniform(-6.0, 0.0)),
        rho2=draw(log_uniform(0.0, 6.0)), sigma_alpha2=draw(log_uniform(-4.0, -1.0)),
        sigma1_2=draw(log_uniform(-2.0, 1.0)), sigma2_2=draw(log_uniform(-2.0, 1.0)),
        snr_dB=draw(st.floats(0.0, 40.0)), seed=draw(st.integers(0, 10_000)),
    )


def build(fields):
    """The config of the drawn fields, or None for L < M_tR, which the
    config must refuse."""
    if fields["L"] < fields["M_tR"]:
        with pytest.raises(ConfigError, match="^L must be >= M_tR for orthonormal waveform rows$"):
            ScenarioConfig(**fields)
        return None
    return ScenarioConfig(**fields)


@pytest.fixture
def specshare_errors_only(monkeypatch):
    """Rows record SpecshareErrors only: any other error propagates."""
    monkeypatch.setattr(harness, "_ROW_ERRORS", (SpecshareError,))


@hypothesis.settings(derandomize=True, deadline=None, max_examples=100,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(fields=configs(), mc_trials=st.sampled_from([0, 2]))
def test_rows_hold_their_properties(specshare_errors_only, fields, mc_trials):
    cfg = build(fields)
    if cfg is None:
        return
    spec = ExperimentSpec(cfg=cfg, methods=METHODS[cfg.scheme], mc_trials=mc_trials)
    rows = run_compare(spec)
    for r in rows:
        if r.error and np.isnan(r.eip):
            continue
        # A recovery-trial error keeps the design columns.
        assert r.error == "" or mc_trials > 0
        assert r.eip >= 0.0 and r.tip >= 0.0
        assert r.capacity >= cfg.C * (1.0 - 1e-9) and r.power <= cfg.P_t
    done = {r.method: r for r in rows if not np.isnan(r.eip)}
    for lower, upper, metric in ORDERINGS:
        if lower in done and upper in done:
            a, b = getattr(done[lower], metric), getattr(done[upper], metric)
            assert a <= b + 1e-6 * abs(b) + 1e-12, (lower, upper, metric, a, b)
    assert format_csv(run_compare(spec)) == format_csv(rows)


def numpy_scalars(cfg, kinds):
    """cfg with its numbers as the drawn types: a float field as float,
    np.float64 or np.float32, an integer one as int, np.int64 or np.int32."""
    changes = {}
    for (name, value), kind in zip(sorted(vars(cfg).items()), kinds):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        types = (int, np.int64, np.int32) if isinstance(value, int) else (float, np.float64,
                                                                          np.float32)
        changes[name] = types[kind](value)
    return cfg.replace(**changes)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=50)
@hypothesis.given(fields=configs(), kinds=st.lists(st.integers(0, 2), min_size=19, max_size=19))
def test_config_round_trip(fields, kinds):
    cfg = build(fields)
    if cfg is None:
        return
    cfg = numpy_scalars(cfg, kinds)
    assert parse_config(format_config(cfg)) == cfg
