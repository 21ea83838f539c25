"""Run configuration shared by the model, the trainer, and the CLI."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError

VARIANTS = ("s2s", "foc", "foccoverage", "focconstrain")

# accepted Python types per annotated field type; bool is an int subclass,
# so it is refused separately everywhere but in a bool field
_FIELD_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,)}


def uses_latent(variant: str) -> bool:
    return variant != "s2s"


def uses_coverage_term(variant: str) -> bool:
    return variant in ("foccoverage", "focconstrain")


def uses_focus_loss(variant: str) -> bool:
    return variant == "focconstrain"


@dataclass
class TrainConfig:
    """Everything a training run needs; round-trips through canonical JSON.

    Desk-scale defaults; parameters start uniform in [-init_scale, init_scale]
    (the paper's range is init_scale 1.0).  The latent size doubles as the
    embedding width.
    """

    variant: str = "focconstrain"
    vocab_size: int = 64
    d_h: int = 64
    d_z: int = 32
    batch_size: int = 32
    total_steps: int = 3000
    warmup_steps: int = 200
    peak_lr: float = 0.002
    kl_anneal_steps: int = 500
    seed: int = 0
    checkpoint_interval: int = 500
    init_scale: float = 0.08
    w_foc: float = 1.0
    w_bow: float = 1.0

    def validate(self) -> "TrainConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, bool) != (f.type == "bool")
                    or not isinstance(value, _FIELD_TYPES[f.type])):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.vocab_size < 4:
            raise ConfigError("vocab_size must be at least 4 (three reserved ids plus content)")
        if self.d_h < 2 or self.d_h % 2:
            raise ConfigError(f"d_h must be even and >= 2 (split across directions), got {self.d_h}")
        if self.d_z < 1:
            raise ConfigError("d_z must be positive")
        for name in ("batch_size", "total_steps", "warmup_steps", "kl_anneal_steps",
                     "checkpoint_interval"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("peak_lr", "init_scale"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("w_foc", "w_bow"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**payload).validate()

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        return cls.from_dict(json.loads(text))
