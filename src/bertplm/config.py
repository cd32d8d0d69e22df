"""Flat key = value configuration with typed defaults.

Files are UTF-8, one ``key = value`` per line, ``#`` starts a comment.
Unknown keys are rejected with the list of valid ones; command-line
overrides win over file values. ``profile = tiny`` rewrites the model
dimensions (and learning rate) to the desk-scale variant before file
values and overrides apply, so either can still override individual keys.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .encoder import EncoderConfig


class ConfigError(ValueError):
    """Unknown key, malformed line, or type mismatch."""


@dataclass
class Config:
    profile: str = "full"
    layers: int = 4
    d: int = 576
    d_ff: int = 1600
    heads: int = 8
    dropout: float = 0.1
    lr: float = 3e-5
    max_seq_len: int = 320
    mask_ratio_max: float = 0.15
    plm_weighting: str = "mean"
    finetune_lambda: float = 1.0
    batch_size: int = 16
    epochs: int = 10
    finetune_epochs: int = 30
    patience: int = 3
    val_fraction: float = 0.1
    heldout_fraction: float = 0.1

    def __post_init__(self):
        if self.profile not in ("full", "tiny"):
            raise ConfigError(f"profile must be full|tiny, got {self.profile!r}")
        if self.plm_weighting not in ("mean", "sum"):
            raise ConfigError(
                f"plm_weighting must be mean|sum, got {self.plm_weighting!r}")
        if not 0.0 < self.mask_ratio_max <= 1.0:
            raise ConfigError("mask_ratio_max must lie in (0, 1]")
        for key in ("batch_size", "epochs", "finetune_epochs", "patience"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1")
        for key in ("heldout_fraction", "val_fraction"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"{key} must lie in [0, 1)")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError("lr must be a finite number above 0")
        if not (math.isfinite(self.finetune_lambda)
                and self.finetune_lambda >= 0.0):
            raise ConfigError("finetune_lambda must be a finite number >= 0")
        try:  # the model-shape rules live in EncoderConfig
            encoder_config(self, vocab_size=2)
        except ValueError as exc:
            raise ConfigError(f"model shape: {exc}") from None


#: desk-scale model; the larger learning rate makes ten epochs meaningful
#: at this width
TINY_PROFILE = {"layers": 2, "d": 64, "d_ff": 128, "heads": 4, "lr": 1e-3}

_FIELDS = {f.name: f.type for f in dataclasses.fields(Config)}


def _parse_value(key: str, raw: str, where: str):
    kind = _FIELDS[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"{where}: key {key!r} expects {kind}, got {raw!r}")


def _check_key(key: str, where: str) -> None:
    if key not in _FIELDS:
        valid = ", ".join(sorted(_FIELDS))
        raise ConfigError(f"{where}: unknown key {key!r}; valid keys: {valid}")


def _parse_pairs(text: str, source: str) -> dict[str, tuple[str, str]]:
    pairs: dict[str, tuple[str, str]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source} line {lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        where = f"{source} line {lineno}"
        _check_key(key, where)
        pairs[key] = (raw, where)
    return pairs


def _build(file_pairs: dict[str, tuple[str, str]],
           override_pairs: dict[str, tuple[str, str]]) -> Config:
    merged = dict(file_pairs)
    merged.update(override_pairs)
    values: dict[str, object] = {}
    profile_raw = merged.get("profile", (None, ""))[0]
    if profile_raw == "tiny":
        values.update(TINY_PROFILE)
    for key, (raw, where) in merged.items():
        values[key] = _parse_value(key, raw, where)
    try:
        return Config(**values)
    except TypeError as exc:  # pragma: no cover - guarded by _check_key
        raise ConfigError(str(exc))


def parse_config(path=None, overrides: dict[str, str] | None = None) -> Config:
    """Config from an optional file plus override strings; overrides win."""
    file_pairs = {}
    if path is not None:
        try:
            text = Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not valid UTF-8 "
                              f"(at byte offset {exc.start})") from None
        file_pairs = _parse_pairs(text, str(path))
    override_pairs = {}
    for key, raw in (overrides or {}).items():
        _check_key(key, "override")
        override_pairs[key] = (str(raw), f"override {key}")
    return _build(file_pairs, override_pairs)


def parse_config_text(text: str) -> Config:
    """Config from an in-memory dump (checkpoint snapshots), under the same
    key rules as a file: a key that is no ``Config`` field is a
    ``ConfigError``."""
    return _build(_parse_pairs(text, "<config>"), {})


def config_text(cfg: Config) -> str:
    """Stable, fully-resolved ``key = value`` dump."""
    lines = [f"{f.name} = {getattr(cfg, f.name)}"
             for f in dataclasses.fields(Config)]
    return "\n".join(lines) + "\n"


def encoder_config(cfg: Config, vocab_size: int) -> EncoderConfig:
    return EncoderConfig(vocab_size=vocab_size, layers=cfg.layers,
                         d_model=cfg.d, d_ff=cfg.d_ff, heads=cfg.heads,
                         max_seq_len=cfg.max_seq_len, dropout=cfg.dropout)
