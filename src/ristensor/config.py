"""Scenario configuration: the dimensions, subcarrier spacing and link
distances of the setup.

Defaults reproduce the reference simulation scenario (4x4 RIS, 120 kHz
subcarrier spacing, 16 subcarriers, 64 OFDM symbols, 10 m / 5 m link
distances).  The antenna count ``L`` and block count ``K`` are free choices
of the operator; the defaults pick L = 2 and K = N^2 so the full-size
scenario is identifiable out of the box.  The carrier wavelength, the
half-wavelength RIS spacing and the radar cross section only scale the path
gain, which cancels out of every estimate at a given SNR; they are
constants of :mod:`ristensor.signal_model`, not config keys.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

SPEED_OF_LIGHT = 3.0e8  # m/s, matches the 15 m round trip -> 100 ns convention

_COUNT_FIELDS = ("L", "N_y", "N_z", "Q", "M", "K")


def is_integer(value) -> bool:
    """Whether ``value`` is an integer setting: an ``int`` or a numpy
    integer.  A ``bool`` is an ``int`` to Python but no count or seed."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class ScenarioConfig:
    """The dimensional parameters, subcarrier spacing and link distances of
    one sensing scenario.

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
    d1, d2 : float
        BS-RIS and RIS-target distances in metres; they set the round-trip
        delay and the path gain's magnitude.
    """

    L: int = 2
    N_y: int = 4
    N_z: int = 4
    Q: int = 16
    M: int = 64
    K: int = 256
    delta_f: float = 120e3
    d1: float = 10.0
    d2: float = 5.0

    def __post_init__(self):
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
            if not is_integer(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("delta_f", "d1", "d2"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")

    def replace(self, **changes) -> "ScenarioConfig":
        """Return a copy with some fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)


def vary(cfg: ScenarioConfig, name: str, value) -> ScenarioConfig:
    """Return ``cfg`` with one count, ``L``, ``M``, ``Q``, ``K`` or ``N``, set
    to ``value``, an integer >= 1 and not a ``bool`` (else ValueError).
    ``N`` is laid out as ``N_y x N_z``, ``N_y`` the largest divisor of ``N``
    at most ``sqrt(N)``.
    """
    if name not in ("L", "M", "Q", "K", "N"):
        raise ValueError(f"grid variable must be one of L, M, Q, K, N, got {name!r}")
    if isinstance(value, bool) or not (is_integer(value) or float(value).is_integer()) \
            or value < 1:
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
    """Parse ``key=value`` strings, each key a :class:`ScenarioConfig` field
    name; an unknown key or a value that does not parse as the field's type
    (an integer count, else a float) raises ValueError naming the key."""
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected 'key=value', got {pair!r}")
        key, raw = (s.strip() for s in pair.split("=", 1))
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        count = key in _COUNT_FIELDS
        try:
            out[key] = int(raw) if count else float(raw)
        except ValueError:
            rule = "an integer >= 1" if count else "finite and > 0"
            raise ValueError(f"{key} must be {rule}, got {raw!r}") from None
    return out


def load_config(path: str, overrides: list[str] | None = None) -> ScenarioConfig:
    """Load a flat config file: one ``key = value`` per line, keys as
    :func:`parse_overrides` takes them, ``#`` starting a comment.

    Values from ``overrides`` (``key=value`` strings) take precedence over
    the file, which takes precedence over the built-in defaults.  A bad
    line raises ValueError prefixed with ``path:lineno``.
    """
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values.update(parse_overrides([line]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if overrides:
        values.update(parse_overrides(overrides))
    return ScenarioConfig(**values)
