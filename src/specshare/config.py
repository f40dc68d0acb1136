"""Experiment configuration: physical and protocol parameters plus file round-trip.

The config file format is flat ``key = value`` text, one field per line.
Angles are in degrees, powers in normalized units, gamma2_dB in dB.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import operator
import typing
from dataclasses import dataclass, field
from enum import Enum


class SpecshareError(ValueError):
    """A failure of a problem instance or its input (an invalid config or
    spec, an unreachable capacity target, a singular noise covariance): a
    result row records it and the CLI reports it. Anything else is a bug."""


class ConfigError(SpecshareError):
    pass


class Scheme(Enum):
    SCHEME_I = "SchemeI"
    SCHEME_II = "SchemeII"


def _default_targets():
    return [(30.0, 0.2 + 0.1j)]


@dataclass
class ScenarioConfig:
    """All parameters of one coexistence experiment.

    Defaults mirror the desk-scale simulation setup: L=32 symbols,
    sigma_C2=0.01, P_t=L, gamma2_dB=-30, rho2=1000*L/M_tR,
    sigma_alpha2=1e-3, sigma1_2=sigma2_2=0.1, one target at 30 degrees.
    sigma_R2 defaults to None, meaning it is derived from snr_dB against
    the noiseless radar return at synthesis time.
    """

    M_tR: int = 4
    M_rR: int = 8
    M_tC: int = 8
    M_rC: int = 4
    L: int = 32
    P_t: float | None = None          # defaults to L
    C: float = 12.0                   # bits/symbol
    sigma_C2: float = 0.01
    sigma_R2: float | None = None     # derived from snr_dB when None
    snr_dB: float = 25.0
    sigma1_2: float = 0.1
    sigma2_2: float = 0.1
    gamma2_dB: float = -30.0
    rho2: float | None = None         # defaults to 1000*L/M_tR
    sigma_alpha2: float = 1e-3
    p: float = 1.0
    scheme: Scheme = Scheme.SCHEME_I
    targets: list = field(default_factory=_default_targets)
    seed: int = 0

    def __post_init__(self):
        # The dimensions first: the rho2 default divides by M_tR. Any
        # integer type passes (NumPy's too); 32.0 does not, nor True, which
        # Python counts as an integer.
        for name in ("M_tR", "M_rR", "M_tC", "M_rC", "L"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):
                    raise TypeError
                operator.index(value)
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {value!r}") from None
            if value < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.P_t is None:
            self.P_t = float(self.L)
        if self.rho2 is None:
            self.rho2 = 1000.0 * self.L / self.M_tR
        # NaN passes every range test below, and inf some of them. Every
        # real-number field is tested, whatever its type: NumPy's float32
        # is not a float.
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if float not in (kind, *typing.get_args(kind)) or value is None:
                continue
            try:
                finite = math.isfinite(value)
            except TypeError:
                raise ConfigError(f"{name} must be a real number, got {value!r}") from None
            if not finite:
                raise ConfigError(f"{name} must be finite, got {value!r}")
        for target in self.targets:
            if not all(cmath.isfinite(x) for x in target):
                raise ConfigError(f"targets must be finite, got {target!r}")
        # A scheme name is parse_config's to read: here only a member passes.
        if not isinstance(self.scheme, Scheme):
            raise ConfigError(f"scheme must be one of {', '.join(map(str, Scheme))}, "
                              f"got {self.scheme!r}")
        if not (0.0 < self.p <= 1.0):
            raise ConfigError("p must be in (0, 1]")
        if self.P_t <= 0:
            raise ConfigError("P_t must be positive")
        if self.C < 0:
            raise ConfigError("C must be nonnegative")
        for name in ("sigma_C2", "sigma1_2", "sigma2_2", "sigma_alpha2"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.sigma_R2 is not None and self.sigma_R2 < 0:
            raise ConfigError("sigma_R2 must be nonnegative")
        if self.rho2 <= 0:
            raise ConfigError("rho2 must be positive")

    @property
    def gamma(self) -> float:
        """Amplitude path-loss factor, gamma = 10^(gamma2_dB/20)."""
        return 10.0 ** (self.gamma2_dB / 20.0)

    @property
    def rho(self) -> float:
        """Radar transmit amplitude, rho = sqrt(rho2)."""
        return float(self.rho2) ** 0.5

    def replace(self, **kwargs) -> "ScenarioConfig":
        return dataclasses.replace(self, **kwargs)


def _format_value(name, value):
    if name == "scheme":
        return value.value
    if name == "targets":
        return ";".join(f"{ang!r}:{coef!r}" for ang, coef in value)
    return repr(value)


def _parse_targets(text):
    targets = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) != 2:
            raise ValueError(f"expected angle:coefficient, got {part!r}")
        ang, coef = fields
        targets.append((float(ang), complex(coef.strip("()"))))
    return targets


_FIELD_NAMES = [f.name for f in dataclasses.fields(ScenarioConfig)]
_FIELD_TYPES = typing.get_type_hints(ScenarioConfig)


def _parse_value(key, text):
    """A field's value from its text, by the field's declared type; 'None'
    only for an optional (T | None) field."""
    kind = _FIELD_TYPES[key]
    if typing.get_args(kind):  # T | None
        if text == "None":
            return None
        kind = typing.get_args(kind)[0]
    if kind is list:
        return _parse_targets(text)
    return kind(text)


def format_config(cfg: ScenarioConfig) -> str:
    lines = [f"{name} = {_format_value(name, getattr(cfg, name))}" for name in _FIELD_NAMES]
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ScenarioConfig:
    """Parse flat key/value text (the format_config format; '#' starts a
    comment) into a ScenarioConfig. Every key must be a config field, set
    once; a value its field's type cannot hold is a ConfigError naming its
    line, and a repeated key one naming both lines."""
    kwargs, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _FIELD_NAMES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}, first set on line "
                              f"{first_line[key]}")
        first_line[key] = lineno
        try:
            kwargs[key] = _parse_value(key, val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    return ScenarioConfig(**kwargs)


def load_config(path) -> ScenarioConfig:
    # A byte that is not UTF-8 becomes U+FFFD, which no key or value accepts,
    # so parse_config reports its line.
    with open(path, encoding="utf-8", errors="replace") as fh:
        return parse_config(fh.read())
