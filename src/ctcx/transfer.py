"""Checkpoint files and recurrent-weight transfer between alphabets.

File layout: magic ``CTCX``, u32 version, u32 header length, UTF-8 JSON
header (model config, alphabet, tensor table with names/shapes/offsets),
zero padding to a 64-byte boundary, then the payload: the model's flat
parameter vector as raw little-endian float32, so the tensors follow each
other in ``tensor_spec`` order. Offsets are relative to the payload base.

Transfer copies the recurrent prefix of that vector (every ``layer*``
tensor) verbatim into a freshly built target model and reinitializes only
the dense head, whose row count is the target alphabet's class count.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .frontend import write_atomic
from .network import (
    ModelConfig,
    ModelParams,
    init_params,
    recurrent_hidden_outputs,
    tensor_spec,
    tensor_views,
    validate_params,
)
from .text_labels import Alphabet

CHECKPOINT_MAGIC = b"CTCX"
CHECKPOINT_VERSION = 1
_ALIGN = 64


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


class TransferError(ValueError):
    """Transfer preconditions violated; nothing is copied."""


class TransferVerificationError(RuntimeError):
    """Copied layers do not reproduce the source activations."""


@dataclass
class Checkpoint:
    format_version: int
    model_config: ModelConfig
    alphabet_name: str
    alphabet_symbols: str
    payload: np.ndarray  # float32 parameter vector in tensor_spec(model_config) order

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.alphabet_name, tuple(self.alphabet_symbols))

    @property
    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """(name, view of the payload) pairs in canonical order."""
        return tensor_views(tensor_spec(self.model_config), self.payload)


def _config_to_dict(cfg: ModelConfig) -> dict:
    return {
        "hidden": cfg.hidden,
        "num_layers": cfg.num_layers,
        "bidirectional": cfg.bidirectional,
        "feature_dim": cfg.feature_dim,
        "num_classes": cfg.num_classes,
    }


def _config_from_dict(d) -> ModelConfig:
    """The header's model config: JSON integers, and a JSON bool for ``bidirectional``."""
    if not isinstance(d, dict):
        raise CheckpointError("header config is not a JSON object")
    fields = ("feature_dim", "num_classes", "hidden", "num_layers", "bidirectional")
    for name in fields:
        if name not in d:
            raise CheckpointError(f"header config missing field {name!r}")
        if not (isinstance(d[name], bool) if name == "bidirectional" else _is_int(d[name])):
            raise CheckpointError(f"bad header config: {name} is {d[name]!r}")
    try:
        return ModelConfig(**{name: d[name] for name in fields})
    except ValueError as e:
        raise CheckpointError(f"bad header config: {e}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def checkpoint_from_params(
    params: ModelParams, cfg: ModelConfig, alphabet: Alphabet
) -> Checkpoint:
    validate_params(params, cfg)
    if alphabet.num_classes != cfg.num_classes:
        raise ValueError(
            f"alphabet {alphabet.name!r} has {alphabet.num_classes} classes, "
            f"config says {cfg.num_classes}"
        )
    payload = params.vector.astype("<f4")
    return Checkpoint(CHECKPOINT_VERSION, cfg, alphabet.name, "".join(alphabet.symbols), payload)


def _check_finite(cfg: ModelConfig, payload: np.ndarray, path) -> None:
    """Raise CheckpointError naming the first tensor that holds a NaN or an infinity."""
    if np.isfinite(payload).all():
        return
    name = next(name for name, view in tensor_views(tensor_spec(cfg), payload)
                if not np.isfinite(view).all())
    raise CheckpointError(f"{path}: tensor {name} holds non-finite values")


def write_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` to ``path``; a payload ``read_checkpoint`` would refuse
    (non-finite values) raises CheckpointError and writes nothing."""
    table = []
    offset = 0
    for name, shape in tensor_spec(ckpt.model_config):
        table.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 4 * math.prod(shape)
    if ckpt.payload.shape != (offset // 4,):
        raise ValueError(
            f"payload of shape {ckpt.payload.shape} does not hold {offset // 4} values"
        )
    _check_finite(ckpt.model_config, ckpt.payload, path)
    header = json.dumps(
        {
            "config": _config_to_dict(ckpt.model_config),
            "alphabet_name": ckpt.alphabet_name,
            "alphabet_symbols": ckpt.alphabet_symbols,
            "tensors": table,
        },
        ensure_ascii=False,
    ).encode("utf-8")
    prefix = CHECKPOINT_MAGIC + struct.pack("<II", ckpt.format_version, len(header)) + header
    pad = (-len(prefix)) % _ALIGN
    payload = np.ascontiguousarray(ckpt.payload, dtype="<f4").tobytes()
    write_atomic(path, prefix + b"\0" * pad + payload)


def save_checkpoint(params: ModelParams, cfg: ModelConfig, alphabet: Alphabet, path) -> None:
    """Serialize a model; float values are stored as float32."""
    write_checkpoint(checkpoint_from_params(params, cfg, alphabet), path)


def read_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint file; any malformed or inconsistent field raises CheckpointError.

    The embedded alphabet must be valid and give the config's class count,
    so ``Checkpoint.alphabet`` of a read checkpoint never raises. The tensor
    table must describe the packed layout ``write_checkpoint`` produces: spec
    order, each offset the total size of the tensors before it, and the
    file ends with the last tensor. Every value must be finite.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise CheckpointError(f"{path}: truncated header")
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}")
    version, header_len = struct.unpack_from("<II", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    if len(raw) < 12 + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable header: {e}") from None

    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    cfg = _config_from_dict(header.get("config", {}))
    alphabet_name = header.get("alphabet_name")
    alphabet_symbols = header.get("alphabet_symbols")
    if not (isinstance(alphabet_name, str) and isinstance(alphabet_symbols, str)):
        raise CheckpointError(f"{path}: header needs string alphabet_name and alphabet_symbols")
    try:
        alphabet = Alphabet(alphabet_name, tuple(alphabet_symbols))
    except ValueError as e:
        raise CheckpointError(f"{path}: bad embedded alphabet: {e}") from None
    if alphabet.num_classes != cfg.num_classes:
        raise CheckpointError(
            f"{path}: alphabet {alphabet_name!r} has {alphabet.num_classes} classes, "
            f"config says {cfg.num_classes}"
        )
    base = 12 + header_len
    base += (-base) % _ALIGN

    expected = tensor_spec(cfg)
    table = header.get("tensors", [])
    if not isinstance(table, list) or not all(isinstance(e, dict) for e in table):
        raise CheckpointError(f"{path}: tensor table is not a list of JSON objects")
    names = [e.get("name") for e in table]
    if names != [name for name, _ in expected]:
        raise CheckpointError(
            f"{path}: tensor table {names} does not match the model config's tensor set"
        )
    end = 0  # payload bytes taken by the tensors so far
    for entry, (name, shape) in zip(table, expected):
        got_shape = entry.get("shape")
        if not (isinstance(got_shape, list) and all(map(_is_int, got_shape))
                and tuple(got_shape) == shape):
            raise CheckpointError(
                f"{path}: tensor {name} has shape {got_shape!r}, config requires {shape}"
            )
        offset = entry.get("offset")
        if not _is_int(offset) or offset != end:
            raise CheckpointError(
                f"{path}: tensor {name} has offset {offset!r}, the packed layout puts it at {end}"
            )
        end += 4 * math.prod(shape)
        if base + end > len(raw):
            raise CheckpointError(f"{path}: truncated payload for tensor {name}")
    if base + end != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - base - end} bytes after the last tensor")
    payload = np.frombuffer(raw, dtype="<f4", count=end // 4, offset=base)
    _check_finite(cfg, payload, path)
    return Checkpoint(version, cfg, alphabet_name, alphabet_symbols, payload)


def params_from_checkpoint(ckpt: Checkpoint) -> ModelParams:
    return ModelParams(tensor_spec(ckpt.model_config), ckpt.payload.astype(np.float64))


@dataclass
class TransferReport:
    copied: tuple[str, ...]
    reinitialized: tuple[str, ...]
    skipped_reason: dict[str, str]

    def to_dict(self) -> dict:
        return {
            "copied": list(self.copied),
            "reinitialized": list(self.reinitialized),
            "skipped_reason": dict(self.skipped_reason),
        }


def transfer_weights(
    source: Checkpoint,
    target_cfg: ModelConfig,
    target_alphabet: Alphabet,
    seed: int,
) -> tuple[ModelParams, TransferReport]:
    """Copy the source's recurrent layers into a fresh target model.

    The dense head is never read from the source; it is reinitialized with
    the target alphabet's class count. Any recurrent geometry mismatch
    aborts with no partial transfer.
    """
    src_cfg = source.model_config
    for field_name in ("hidden", "num_layers", "bidirectional", "feature_dim"):
        src_val = getattr(src_cfg, field_name)
        tgt_val = getattr(target_cfg, field_name)
        if src_val != tgt_val:
            raise TransferError(
                f"source {field_name}={src_val} does not match target {field_name}={tgt_val}"
            )
    if target_cfg.num_classes != target_alphabet.num_classes:
        raise TransferError(
            f"target config has {target_cfg.num_classes} classes but alphabet "
            f"{target_alphabet.name!r} needs {target_alphabet.num_classes}"
        )

    # equal geometry gives both models the same recurrent prefix; the head follows it
    params = init_params(replace(target_cfg, seed=seed))
    reinit = ("dense.w", "dense.b")
    recurrent = params.vector.size - params.dense_w.size - params.dense_b.size
    params.vector[:recurrent] = source.payload[:recurrent]

    reason = (
        f"output dimension mismatch: source {src_cfg.num_classes} classes "
        f"!= target {target_cfg.num_classes} classes"
    )
    copied = tuple(name for name in params.tensors if name not in reinit)
    report = TransferReport(copied, reinit, {name: reason for name in reinit})
    return params, report


@dataclass
class VerifyReport:
    max_abs_deviation: float
    first_divergence: str | None
    ok: bool

    def to_dict(self) -> dict:
        return {
            "max_abs_deviation": self.max_abs_deviation,
            "first_divergence": self.first_divergence,
            "ok": self.ok,
        }


def verify_transfer(
    source_params: ModelParams,
    transferred_params: ModelParams,
    cfg: ModelConfig,
    probe_features,
    post_training: bool = False,
) -> VerifyReport:
    """Check that both recurrent stacks produce identical hidden outputs.

    ``cfg`` describes the shared recurrent geometry (the dense heads may
    differ and are not run). Any nonzero deviation raises unless
    ``post_training`` is set, in which case it is only reported.
    """
    probes = [probe_features] if isinstance(probe_features, np.ndarray) else list(probe_features)
    # class counts may differ between the two heads; only the stacks are run
    src_cfg = replace(cfg, num_classes=source_params.dense_b.shape[0])
    tgt_cfg = replace(cfg, num_classes=transferred_params.dense_b.shape[0])
    max_dev = 0.0
    first = None
    for probe in probes:
        src_out = recurrent_hidden_outputs(source_params, src_cfg, probe)
        tgt_out = recurrent_hidden_outputs(transferred_params, tgt_cfg, probe)
        for li, (a, b) in enumerate(zip(src_out, tgt_out)):
            dev = float(np.max(np.abs(a - b))) if a.shape == b.shape else np.inf
            if dev > 0.0 and first is None:
                first = f"layer{li + 1}"
            max_dev = max(max_dev, dev)
    ok = max_dev == 0.0
    if not ok and not post_training:
        raise TransferVerificationError(
            f"hidden outputs diverge at {first}: max abs deviation {max_dev:g}"
        )
    return VerifyReport(max_dev, first, ok)
