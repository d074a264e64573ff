"""Experiment configuration: defaults, JSON loading, seed resolution."""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from .backbone import BackboneConfig
from .filtering import FilterTrainConfig
from .refiner import SimulateConfig
from .warmup import WarmupConfig


def default_config() -> dict:
    """Every tunable with its default; the template behind ``default-config``.

    The backbone, filter, refiner and warmup sections take their defaults
    from the dataclasses that hold them; only keys no dataclass holds are
    spelled out here.  Section seeds are null until :func:`resolve_seeds`.
    """
    return {
        "seed": 0,
        "data": {
            "dataset": "citeulike",
            "path": None,
            "min_rating": 0,
            "cold_frac": 0.2,
            "seed": None,
        },
        "backbone": {**asdict(BackboneConfig()), "seed": None},
        "content": {
            "provider": "mock",
            "dim": 256,
            "hash_seed": 0,
            "endpoint": None,
            "timeout": 30.0,
            "retries": 3,
            "max_inflight": 8,
        },
        "filter": {"hidden": 200, "out": 200, **asdict(FilterTrainConfig()),
                   "seed": None},
        "refiner": {
            "oracle": "mock-threshold",
            "tau": 0.3,
            "endpoint": None,
            "chat": False,
            "retries": 3,
            "timeout": 30.0,
            "max_inflight": 8,
            "finetune_positives": None,
            **asdict(SimulateConfig()),
        },
        "warmup": {**asdict(WarmupConfig()), "retrain_with_simulated": False,
                   "seed": None},
        "eval": {
            "k": 20,
            "users": 2000,
            "seed": None,
        },
    }


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ValueError(f"unknown config key: {where}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def load_config(path: str | Path | None = None) -> dict:
    """Defaults overlaid with the JSON document at ``path`` (if given)."""
    cfg = default_config()
    if path is None:
        return cfg
    with open(path, encoding="utf-8") as fh:
        user_cfg = json.load(fh)
    return _merge(cfg, user_cfg)


def resolve_seeds(cfg: dict, seed_override: int | None = None) -> dict:
    """Fill per-section null seeds from the global seed."""
    cfg = copy.deepcopy(cfg)
    if seed_override is not None:
        cfg["seed"] = seed_override
    base = cfg["seed"]
    for section in ("data", "backbone", "filter", "warmup", "eval"):
        if cfg[section].get("seed") is None:
            cfg[section]["seed"] = base
    return cfg


def fingerprint(cfg: dict) -> str:
    """Stable short hash of a resolved config."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]
