"""Scenario configuration: physical and dimensional parameters of the setup.

Defaults reproduce the reference simulation scenario (28 GHz carrier,
half-wavelength RIS spacing, 120 kHz subcarrier spacing, 16 subcarriers,
64 OFDM symbols, 10 m / 5 m link distances, 2 m^2 radar cross section).
The antenna count ``L`` and block count ``K`` are free choices of the
operator; the defaults pick L = 2 and K = N^2 so the full-size scenario is
identifiable out of the box.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

SPEED_OF_LIGHT = 3.0e8  # m/s, matches the 15 m round trip -> 100 ns convention

#: accepted spellings for config-file keys that carry symbols
_KEY_ALIASES = {
    "Δf": "delta_f",
    "λ": "wavelength",
    "σ_RCS": "sigma_rcs",
}

_COUNT_FIELDS = ("L", "N_y", "N_z", "Q", "M", "K")


@dataclass
class ScenarioConfig:
    """All physical and dimensional parameters of one sensing scenario.

    Attributes
    ----------
    L : int
        Number of base-station antennas.
    N_y, N_z : int
        RIS grid size; the surface has ``N = N_y * N_z`` elements.
    Q, M, K : int
        Subcarriers, OFDM symbols per block, and number of blocks.
    delta_f : float
        Subcarrier spacing in Hz; the symbol duration ``T_s`` is derived
        from it as ``1 / delta_f``.
    wavelength : float
        Carrier wavelength in metres.
    d1, d2 : float
        BS-RIS and RIS-target distances in metres.
    P_t, G1, G2 : float
        Transmit power (W) and BS transmit/receive antenna gains (linear).
    F1sq, F2sq : float
        Normalized RIS power radiation pattern values (linear, in (0, 1]).
    d_x, d_y : float
        RIS element spacings in metres (default: half wavelength).
    sigma_rcs : float
        Target radar cross section in m^2.
    """

    L: int = 2
    N_y: int = 4
    N_z: int = 4
    Q: int = 16
    M: int = 64
    K: int = 256
    delta_f: float = 120e3
    wavelength: float = 1.07e-2
    d1: float = 10.0
    d2: float = 5.0
    P_t: float = 1.0
    G1: float = 1.0
    G2: float = 1.0
    F1sq: float = 1.0
    F2sq: float = 1.0
    d_x: float | None = None
    d_y: float | None = None
    sigma_rcs: float = 2.0

    def __post_init__(self):
        if self.d_x is None:
            self.d_x = self.wavelength / 2.0
        if self.d_y is None:
            self.d_y = self.wavelength / 2.0
        self.validate()

    @property
    def N(self) -> int:
        return self.N_y * self.N_z

    @property
    def T_s(self) -> float:
        """Symbol duration in seconds, ``1 / delta_f``."""
        return 1.0 / self.delta_f

    def validate(self) -> None:
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("delta_f", "wavelength", "d1", "d2", "P_t", "G1", "G2",
                     "F1sq", "F2sq", "d_x", "d_y", "sigma_rcs"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        for name in ("F1sq", "F2sq"):
            if getattr(self, name) > 1.0:
                raise ValueError(f"{name} is a normalized power pattern, must be <= 1")

    def replace(self, **changes) -> "ScenarioConfig":
        """Return a copy with some fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)


def vary(cfg: ScenarioConfig, name: str, value) -> ScenarioConfig:
    """Return ``cfg`` with one count, ``L``, ``M``, ``Q``, ``K`` or ``N``, set
    to ``value``, an integer >= 1 (else ValueError).  ``N`` is laid out as
    ``N_y x N_z``, ``N_y`` the largest divisor of ``N`` at most ``sqrt(N)``.
    """
    if name not in ("L", "M", "Q", "K", "N"):
        raise ValueError(f"grid variable must be one of L, M, Q, K, N, got {name!r}")
    if not (isinstance(value, numbers.Integral) or float(value).is_integer()) or value < 1:
        raise ValueError(f"grid values must be integers >= 1, got {name}={value}")
    count = int(value)
    if name == "N":
        n_y = next(d for d in range(math.isqrt(count), 0, -1) if count % d == 0)
        return cfg.replace(N_y=n_y, N_z=count // n_y)
    return cfg.replace(**{name: count})


def small_config(**overrides) -> ScenarioConfig:
    """Desk-scale scenario used by tests and demos: N = 4, K = N^2.

    Keeps every identifiability bound satisfied while remaining fast.
    """
    base = dict(L=2, N_y=2, N_z=2, Q=8, M=8, K=16)
    base.update(overrides)
    return ScenarioConfig(**base)


def default_delay(cfg: ScenarioConfig) -> float:
    """Round-trip propagation delay over the BS-RIS-target-RIS-BS path."""
    return 2.0 * (cfg.d1 + cfg.d2) / SPEED_OF_LIGHT


def parse_overrides(pairs: list[str]) -> dict:
    """Parse ``key=value`` strings; unknown keys are rejected up front."""
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected 'key=value', got {pair!r}")
        key, raw = (s.strip() for s in pair.split("=", 1))
        key = _KEY_ALIASES.get(key, key)
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        out[key] = int(raw) if key in _COUNT_FIELDS else float(raw)
    return out


def load_config(path: str, overrides: list[str] | None = None) -> ScenarioConfig:
    """Load a flat key-value config file (``key = value`` or ``key: value``
    per line, # comments).

    Values from ``overrides`` (``key=value`` strings) take precedence over
    the file, which takes precedence over the built-in defaults.
    """
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                line = line.replace(":", "=", 1)
            try:
                values.update(parse_overrides([line]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if overrides:
        values.update(parse_overrides(overrides))
    return ScenarioConfig(**values)
