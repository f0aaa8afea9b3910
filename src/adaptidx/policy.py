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
import uuid
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
        """Write to a temp file beside `path`, then rename it over `path`.

        A crash mid-write leaves the previous calibration in place.
        """
        path = Path(path)
        temp = path.with_name(f".{path.name}.tmp.{uuid.uuid4().hex[:12]}")
        try:
            with open(temp, "w") as f:
                json.dump(
                    {
                        "t_fsw": self.t_fsw,
                        "t_idx_overhead": self.t_idx_overhead,
                        "t_target": self.t_target,
                    },
                    f,
                    indent=2,
                )
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: Path | str) -> "Calibration":
        with open(path) as f:
            raw = json.load(f)
        return cls(
            t_fsw=raw.get("t_fsw"),
            t_idx_overhead=raw.get("t_idx_overhead"),
            t_target=raw.get("t_target"),
        )
