"""Runtime configuration: search budget and worker count."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import ConfigError, PreconditionError
from .linalg import DEFAULT_BUDGET


@dataclass(frozen=True)
class Config:
    search_budget: int = DEFAULT_BUDGET
    workers: int = 1

    def __post_init__(self):
        if self.search_budget < 1:
            raise PreconditionError("search budget must be at least 1")
        if self.workers < 1:
            raise PreconditionError("worker count must be at least 1")


_ENV_FIELDS = (("RLA_BUDGET", "search_budget"), ("RLA_WORKERS", "workers"))


def from_env(base: Config = Config()) -> Config:
    """Apply RLA_BUDGET and RLA_WORKERS overrides; explicit flags should be
    applied by the caller afterwards so that flags win over the environment.
    A value that is not a valid setting raises ConfigError."""
    cfg = base
    for var, name in _ENV_FIELDS:
        text = os.environ.get(var)
        if text is None:
            continue
        try:
            cfg = replace(cfg, **{name: int(text)})
        except (ValueError, PreconditionError) as exc:
            raise ConfigError(f"{var}={text!r}: {exc}") from exc
    return cfg
