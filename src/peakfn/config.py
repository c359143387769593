"""Config file loading and grid-spec parsing for the command-line tool.

Configs are JSON: five required hypothesis reals, optional derivation
overrides (D, M, L) and the barrier family.  They fix the constants and
the family and nothing else: the head length, the grid and the series
path are the flags --terms, --grid and --series.  Everything downstream
is a pure function of the config and the flags, which is what makes
reruns byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ConfigError

GRID_KINDS = ("log", "linear")

REQUIRED_KEYS = ("alpha", "s", "t", "A", "C")
OPTIONAL_KEYS = ("D", "M", "L", "family")


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
    family: str = "synthetic"


def parse_grid(spec: str) -> tuple:
    """Parse a KIND:LO:HI:COUNT grid spec string into make_grid's
    (kind, lo, hi, count)."""
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
    return kind, lo, hi, count


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
    if "family" in data:
        fam = data["family"]
        if not isinstance(fam, str):
            raise ConfigError("config key 'family' must be a string")
        kwargs["family"] = fam
    return Config(**kwargs)
