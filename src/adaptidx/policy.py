"""Cost model for eager adaptive indexing.

A job's runtime decomposes into the index-scan phase, the full-scan waves,
and the indexing overhead piggybacked on those waves:

    T_job = T_is + t_fsw * n_fsw + t_idx * min(rho * ceil(n_blocks / n_slots), n_fsw)

with n_fsw = ceil((n_blocks - n_idx_blocks) / n_slots). Solving for the offer
rate that spends a runtime budget T_target on indexing gives

    rho = (T_target - T_is - t_fsw * n_fsw) / (t_idx * ceil(n_blocks / n_slots))

The min() is evaluated in real arithmetic; only the resulting duration is a
float quantity, never rounded to whole waves. `indexing_waves` is that min().

`Calibration.fill` inverts the model on one job's measurements: the
full-scan phase time t_scan, the indexing overhead t_overhead and the job
time t_job give

    t_fsw = t_scan / n_fsw,  t_idx = t_overhead / indexing_waves,  T_target = t_job

each set only while unset, and not from a count or an overhead of 0, nor
to a value that is not finite.
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
        if self.n_blocks < 0 or self.n_idx_blocks < 0:
            raise ConfigError(
                f"block counts must be non-negative, got {self.n_blocks} and {self.n_idx_blocks}"
            )
        if self.n_idx_blocks > self.n_blocks:
            raise ConfigError("cannot have more indexed blocks than blocks")
        for name in ("t_fsw", "t_idx_overhead", "T_is", "T_target"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be non-negative and finite, got {value!r}")


def n_fsw(params: CostModelParams) -> int:
    """Number of map waves doing full scans."""
    return math.ceil((params.n_blocks - params.n_idx_blocks) / params.n_slots)


def total_waves(params: CostModelParams) -> int:
    return math.ceil(params.n_blocks / params.n_slots)


def indexing_waves(params: CostModelParams, rho: float) -> float:
    """The waves' worth of indexing overhead at offer rate `rho`: the
    multiplier of t_idx in the model."""
    return min(rho * total_waves(params), n_fsw(params))


def predict_T_job(params: CostModelParams, rho: float) -> float:
    """Predicted job runtime for a given offer rate."""
    if not 0.0 <= rho <= 1.0:
        raise ConfigError(f"rho must be in [0, 1], got {rho}")
    overhead = params.t_idx_overhead * indexing_waves(params, rho)
    return params.T_is + params.t_fsw * n_fsw(params) + overhead


def compute_rho(params: CostModelParams) -> float:
    """Offer rate that fills the budget T_target, clamped to [0, 1].

    The number of blocks actually offered downstream is additionally capped
    by the unindexed-block count; the rate itself is not reduced for that, so
    a fully affordable job reports rho = 1 even when few blocks remain.
    """
    budget = params.T_target - params.T_is - params.t_fsw * n_fsw(params)
    if budget <= 0.0:  # also an overflowed scan term, which a huge t_idx would turn to NaN
        return 0.0
    if params.t_idx_overhead <= 0.0:
        return 1.0
    return min(budget / (params.t_idx_overhead * total_waves(params)), 1.0)


def save_json(path: Path | str, data: dict) -> None:
    """Write `data` as JSON to `.<name>.tmp` beside `path`, then rename it over `path`.

    A crash or an error mid-write leaves the previous file in place, and an
    error removes the temp file (`Cluster.__init__` removes a crash's; the
    name needs no nonce, by invariant 1 in README, "Invariants").
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


def check_time(value, what: str, expected: str) -> None:
    """Refuse, with ConfigError naming it as `what`, a cost-model time that is
    not a finite non-negative int or float: it must be `expected`."""
    # `not value >= 0` also refuses NaN.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value >= 0:
        raise ConfigError(f"{what} must be {expected}, got {value!r}")
    if not math.isfinite(value):  # Python's json reads Infinity
        raise ConfigError(f"{what} must be finite, got {value!r}")


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

    def fill(
        self, params: CostModelParams, rho: float, t_scan: float, t_overhead: float, t_job: float
    ) -> None:
        """Set each unset value from a job's measurements at offer rate `rho`,
        by the inverse in the module docstring; reads only the block and slot
        counts of `params`. A value that is not finite stays unset, for a
        later job to fill."""
        waves, indexing = n_fsw(params), indexing_waves(params, rho)
        for name, value in (
            ("t_fsw", t_scan / waves if waves > 0 else None),
            ("t_idx_overhead", t_overhead / indexing if t_overhead > 0 and indexing > 0 else None),
            ("t_target", t_job),
        ):
            if getattr(self, name) is None and value is not None and math.isfinite(value):
                setattr(self, name, value)

    def save(self, path: Path | str) -> None:
        """Replace `path` through `save_json`: a crash leaves the previous calibration."""
        save_json(
            path,
            {"t_fsw": self.t_fsw, "t_idx_overhead": self.t_idx_overhead, "t_target": self.t_target},
        )

    @classmethod
    def load(cls, path: Path | str) -> "Calibration":
        """Read a saved calibration, an empty one if `path` does not exist; a
        malformed file raises ConfigError naming it."""
        if not os.path.exists(path):
            return cls()
        raw = load_json(path, "calibration")
        if not isinstance(raw, dict):
            raise ConfigError(f"calibration {path} must be a JSON object")
        values = {}
        for name in ("t_fsw", "t_idx_overhead", "t_target"):
            value = values[name] = raw.get(name)
            if value is not None:
                check_time(value, f"calibration {path}: {name!r}", "null or a non-negative number")
        return cls(**values)
