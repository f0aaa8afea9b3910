"""Cost model for eager adaptive indexing.

A job's runtime decomposes into the index-scan phase, the full-scan waves,
and the indexing overhead piggybacked on those waves:

    T_job = T_is + t_fsw * n_fsw + t_idx * min(rho * ceil(n_blocks / n_slots), n_fsw)

with n_fsw = ceil((n_blocks - n_idx_blocks) / n_slots). Solving for the offer
rate that spends a runtime budget T_target on indexing gives

    rho = (T_target - T_is - t_fsw * n_fsw) / (t_idx * ceil(n_blocks / n_slots))

The min() is evaluated in real arithmetic; only the resulting duration is a
float quantity, never rounded to whole waves.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ConfigError


@dataclass
class CostModelParams:
    n_slots: int
    n_blocks: int
    n_idx_blocks: int
    t_fsw: float
    t_idx_overhead: float
    T_is: float
    T_target: float

    def __post_init__(self) -> None:
        if self.n_slots < 1:
            raise ConfigError("n_slots must be >= 1")
        if self.n_idx_blocks > self.n_blocks:
            raise ConfigError("cannot have more indexed blocks than blocks")
        for name in ("t_fsw", "t_idx_overhead", "T_is", "T_target"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")


def n_fsw(params: CostModelParams) -> int:
    """Number of map waves doing full scans."""
    return math.ceil((params.n_blocks - params.n_idx_blocks) / params.n_slots)


def total_waves(params: CostModelParams) -> int:
    return math.ceil(params.n_blocks / params.n_slots)


def predict_T_job(params: CostModelParams, rho: float) -> float:
    """Predicted job runtime for a given offer rate."""
    if not 0.0 <= rho <= 1.0:
        raise ConfigError(f"rho must be in [0, 1], got {rho}")
    waves = n_fsw(params)
    overhead = params.t_idx_overhead * min(rho * total_waves(params), waves)
    return params.T_is + params.t_fsw * waves + overhead


def compute_rho(params: CostModelParams) -> float:
    """Offer rate that fills the budget T_target, clamped to [0, 1].

    The number of blocks actually offered downstream is additionally capped
    by the unindexed-block count; the rate itself is not reduced for that, so
    a fully affordable job reports rho = 1 even when few blocks remain.
    """
    budget = params.T_target - params.T_is - params.t_fsw * n_fsw(params)
    if params.t_idx_overhead <= 0.0:
        return 1.0 if budget > 0 else 0.0
    rho = budget / (params.t_idx_overhead * total_waves(params))
    return min(max(rho, 0.0), 1.0)


def save_json(path: Path | str, data: dict) -> None:
    """Write `data` as JSON to `.<name>.tmp` beside `path`, then rename it over `path`.

    A crash or an error mid-write leaves the previous file in place, and an
    error removes the temp file (`Cluster.__init__` removes a crash's: one
    process owns the cluster directory, so the name needs no nonce).
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.tmp")
    try:
        with open(temp, "w") as f:
            json.dump(data, f, indent=2)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def load_json(path: Path | str, what: str):
    """The JSON document at `path`; one that does not parse raises
    ConfigError naming it as `what`."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as exc:
            raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None


@dataclass
class Calibration:
    """Measured wave costs, persisted next to the registry journal."""

    t_fsw: Optional[float] = None
    t_idx_overhead: Optional[float] = None
    t_target: Optional[float] = None

    @property
    def usable(self) -> bool:
        return (
            self.t_fsw is not None
            and self.t_idx_overhead is not None
            and self.t_target is not None
        )

    def save(self, path: Path | str) -> None:
        """Replace `path` through `save_json`: a crash leaves the previous calibration."""
        save_json(
            path,
            {"t_fsw": self.t_fsw, "t_idx_overhead": self.t_idx_overhead, "t_target": self.t_target},
        )

    @classmethod
    def load(cls, path: Path | str) -> "Calibration":
        """Read a saved calibration; a malformed file raises ConfigError naming it."""
        raw = load_json(path, "calibration")
        if not isinstance(raw, dict):
            raise ConfigError(f"calibration {path} must be a JSON object")
        values = {}
        for name in ("t_fsw", "t_idx_overhead", "t_target"):
            value = raw.get(name)
            if value is not None and (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not value >= 0  # also refuses NaN
            ):
                raise ConfigError(
                    f"calibration {path}: {name!r} must be null or a non-negative number, "
                    f"got {value!r}"
                )
            values[name] = value
        return cls(**values)
