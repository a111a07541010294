"""Runtime configuration: search budget, worker count and seed."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import PreconditionError
from .linalg import DEFAULT_BUDGET


@dataclass(frozen=True)
class Config:
    search_budget: int = DEFAULT_BUDGET
    workers: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.search_budget < 1:
            raise PreconditionError("search budget must be at least 1")
        if self.workers < 1:
            raise PreconditionError("worker count must be at least 1")


def from_env(base: Config = Config()) -> Config:
    """Apply RLA_BUDGET and RLA_WORKERS overrides; explicit flags should be
    applied by the caller afterwards so that flags win over the environment."""
    cfg = base
    budget = os.environ.get("RLA_BUDGET")
    if budget is not None:
        cfg = replace(cfg, search_budget=int(budget))
    workers = os.environ.get("RLA_WORKERS")
    if workers is not None:
        cfg = replace(cfg, workers=int(workers))
    return cfg
