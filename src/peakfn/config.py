"""Config file loading and grid-spec parsing for the command-line tool.

Configs are JSON: five required hypothesis reals, optional derivation
overrides, and optional run settings. Everything downstream is a pure
function of this record, which is what makes reruns byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ConfigError

GRID_KINDS = ("log", "linear")

REQUIRED_KEYS = ("alpha", "s", "t", "A", "C")
OPTIONAL_KEYS = ("D", "M", "L", "N", "family", "grid", "m_max", "series")


@dataclass(frozen=True)
class GridSpec:
    kind: str
    lo: float
    hi: float
    count: int

    def as_tuple(self):
        return (self.kind, self.lo, self.hi, self.count)


@dataclass(frozen=True)
class Config:
    alpha: float
    s: float
    t: float
    A: float
    C: float
    D: float | None = None
    M: float | None = None
    L: float | None = None
    N: int = 100
    family: str = "synthetic"
    grid: GridSpec = GridSpec("log", 1e-30, 1.0, 500)
    m_max: int = 120
    series: str | None = None


def parse_grid(spec: str) -> GridSpec:
    """Parse a KIND:LO:HI:COUNT grid spec string."""
    parts = str(spec).split(":")
    if len(parts) != 4:
        raise ConfigError(
            f"grid spec {spec!r} must have the form KIND:LO:HI:COUNT")
    kind, lo_s, hi_s, count_s = parts
    if kind not in GRID_KINDS:
        raise ConfigError(
            f"grid kind {kind!r} must be one of {GRID_KINDS}")
    try:
        lo = float(lo_s)
        hi = float(hi_s)
        count = int(count_s)
    except ValueError as exc:
        raise ConfigError(f"grid spec {spec!r}: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi):
        raise ConfigError(
            f"grid spec {spec!r} needs 0 < LO <= HI, both finite")
    if count < 1:
        raise ConfigError(f"grid spec {spec!r} needs COUNT >= 1")
    return GridSpec(kind, lo, hi, count)


def _as_grid(value) -> GridSpec:
    if isinstance(value, str):
        return parse_grid(value)
    if isinstance(value, dict):
        try:
            return parse_grid(
                f"{value['kind']}:{value['lo']}:{value['hi']}:{value['count']}")
        except KeyError as exc:
            raise ConfigError(f"grid object missing key {exc}") from exc
    raise ConfigError("grid must be a KIND:LO:HI:COUNT string or an object")


def _req_real(data: dict, key: str) -> float:
    if key not in data:
        raise ConfigError(f"config missing required key {key!r}")
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
        raise ConfigError(f"config key {key!r} must be finite")
    return v


def _opt_real(data: dict, key: str) -> float | None:
    if key not in data or data[key] is None:
        return None
    return _req_real(data, key)


def load_config(path) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    unknown = sorted(set(data) - set(REQUIRED_KEYS) - set(OPTIONAL_KEYS))
    if unknown:
        raise ConfigError(f"config {path!r} has unknown keys: {unknown}")
    kwargs = {k: _req_real(data, k) for k in REQUIRED_KEYS}
    for k in ("D", "M", "L"):
        kwargs[k] = _opt_real(data, k)
    if "N" in data:
        n = data["N"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ConfigError("config key 'N' must be a positive integer")
        kwargs["N"] = n
    if "family" in data:
        fam = data["family"]
        if not isinstance(fam, str):
            raise ConfigError("config key 'family' must be a string")
        kwargs["family"] = fam
    if "grid" in data:
        kwargs["grid"] = _as_grid(data["grid"])
    if "m_max" in data:
        mm = data["m_max"]
        if isinstance(mm, bool) or not isinstance(mm, int) or mm < 3:
            raise ConfigError("config key 'm_max' must be an integer >= 3")
        kwargs["m_max"] = mm
    if "series" in data:
        v = data["series"]
        if not isinstance(v, str):
            raise ConfigError("config key 'series' must be a path string")
        kwargs["series"] = v
    return Config(**kwargs)
