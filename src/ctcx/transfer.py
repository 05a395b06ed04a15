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
    GEOMETRY,
    ModelConfig,
    ModelParams,
    forward_batch,
    init_params,
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


def _config_from_dict(d, path) -> ModelConfig:
    """The header's model config: JSON integers, and a JSON bool for ``bidirectional``."""
    if not isinstance(d, dict):
        raise CheckpointError(f"{path}: header config is not a JSON object")
    for name in GEOMETRY:
        if name not in d:
            raise CheckpointError(f"{path}: header config missing field {name!r}")
        if type(d[name]) is not (bool if name == "bidirectional" else int):
            raise CheckpointError(f"{path}: bad header config: {name} is {d[name]!r}")
    try:
        return ModelConfig(**{name: d[name] for name in GEOMETRY})
    except ValueError as e:
        raise CheckpointError(f"{path}: bad header config: {e}") from None


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
    return Checkpoint(cfg, alphabet.name, "".join(alphabet.symbols), payload)


def _check_finite(cfg: ModelConfig, payload: np.ndarray, path) -> None:
    """Raise CheckpointError naming the first tensor that holds a NaN or an infinity."""
    if np.isfinite(payload).all():
        return
    name = next(name for name, view in tensor_views(tensor_spec(cfg), payload)
                if not np.isfinite(view).all())
    raise CheckpointError(f"{path}: tensor {name} holds non-finite values")


def _payload_size(cfg: ModelConfig) -> int:
    """The number of float32 values in a checkpoint's payload."""
    return sum(math.prod(shape) for _, shape in tensor_spec(cfg))


def _header(cfg: ModelConfig, alphabet_name: str, alphabet_symbols: str) -> dict:
    """The JSON header of a checkpoint: config, alphabet, and the packed
    tensor table in spec order, each offset being the bytes before it."""
    table = []
    offset = 0
    for name, shape in tensor_spec(cfg):
        table.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 4 * math.prod(shape)
    return {
        "config": {name: getattr(cfg, name) for name in GEOMETRY},
        "alphabet_name": alphabet_name,
        "alphabet_symbols": alphabet_symbols,
        "tensors": table,
    }


def _prefix(header: dict) -> bytes:
    """Everything before the payload: magic, version, header length, header, zero padding."""
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    prefix = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(blob)) + blob
    return prefix + b"\0" * ((-len(prefix)) % _ALIGN)


def write_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` to ``path``; a payload ``read_checkpoint`` would refuse
    (non-finite values) raises CheckpointError and writes nothing."""
    cfg = ckpt.model_config
    size = _payload_size(cfg)
    if ckpt.payload.shape != (size,):
        raise ValueError(f"payload of shape {ckpt.payload.shape} does not hold {size} values")
    _check_finite(cfg, ckpt.payload, path)
    prefix = _prefix(_header(cfg, ckpt.alphabet_name, ckpt.alphabet_symbols))
    write_atomic(path, prefix + np.ascontiguousarray(ckpt.payload, dtype="<f4").tobytes())


def save_checkpoint(params: ModelParams, cfg: ModelConfig, alphabet: Alphabet, path) -> None:
    """Serialize a model; float values are stored as float32."""
    write_checkpoint(checkpoint_from_params(params, cfg, alphabet), path)


def read_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint file; any malformed or inconsistent field raises CheckpointError.

    The embedded alphabet must be valid and give the config's class count,
    so ``Checkpoint.alphabet`` of a read checkpoint never raises. Everything
    before the payload must be the bytes ``write_checkpoint`` writes for the
    parsed config and alphabet, and the payload must fill the rest of the
    file, so a checkpoint that reads writes back byte-identical. Every value
    must be finite.
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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise CheckpointError(f"{path}: unreadable header: {e}") from None

    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    cfg = _config_from_dict(header.get("config", {}), path)
    alphabet_name = header.get("alphabet_name")
    alphabet_symbols = header.get("alphabet_symbols")
    if not (isinstance(alphabet_name, str) and isinstance(alphabet_symbols, str)):
        raise CheckpointError(f"{path}: header needs string alphabet_name and alphabet_symbols")
    written = _header(cfg, alphabet_name, alphabet_symbols)
    try:
        alphabet = Alphabet(alphabet_name, tuple(alphabet_symbols))
        prefix = _prefix(written)  # a lone surrogate in the alphabet does not encode
    except ValueError as e:
        raise CheckpointError(f"{path}: bad embedded alphabet: {e}") from None
    if alphabet.num_classes != cfg.num_classes:
        raise CheckpointError(
            f"{path}: alphabet {alphabet_name!r} has {alphabet.num_classes} classes, "
            f"config says {cfg.num_classes}"
        )
    if raw[: len(prefix)] != prefix:
        # name the top-level keys whose parsed value differs; if none does, the encoding differs
        missing = object()
        keys = [key for key in {**written, **header}
                if header.get(key, missing) != written.get(key, missing)]
        where = (", ".join(map(repr, keys))
                 or "its encoding (key order, whitespace, padding or number form)")
        raise CheckpointError(f"{path}: header differs from the written form in {where}")
    size = len(prefix) + 4 * _payload_size(cfg)
    if len(raw) != size:
        raise CheckpointError(f"{path}: file has {len(raw)} bytes, the header needs {size}")
    payload = np.frombuffer(raw, dtype="<f4", offset=len(prefix))
    _check_finite(cfg, payload, path)
    return Checkpoint(cfg, alphabet_name, alphabet_symbols, payload)


def params_from_checkpoint(ckpt: Checkpoint) -> ModelParams:
    return ModelParams(tensor_spec(ckpt.model_config), ckpt.payload.astype(np.float64))


@dataclass
class TransferReport:
    copied: tuple[str, ...]
    reinitialized: tuple[str, ...]
    skipped_reason: dict[str, str]


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
    for name in GEOMETRY:
        src_val, tgt_val = getattr(src_cfg, name), getattr(target_cfg, name)
        if name != "num_classes" and src_val != tgt_val:
            raise TransferError(f"source {name}={src_val} does not match target {name}={tgt_val}")
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
    """What a passing ``verify_transfer`` saw: no deviation and no diverging layer."""

    max_abs_deviation: float
    first_divergence: str | None
    ok: bool


def verify_transfer(
    source_params: ModelParams,
    transferred_params: ModelParams,
    cfg: ModelConfig,
    probe_features,
) -> VerifyReport:
    """Check that both recurrent stacks produce identical hidden outputs.

    ``cfg`` describes the shared recurrent geometry (the dense heads may
    differ). A probe holding a NaN or an infinity raises ValueError, since
    it would make every output differ from itself; any other difference
    raises TransferVerificationError naming the first layer that differs.
    """
    if isinstance(probe_features, np.ndarray):
        probe_features = [probe_features]
    probes = [np.asarray(probe, dtype=np.float64) for probe in probe_features]
    for index, probe in enumerate(probes):
        if not np.isfinite(probe).all():
            raise ValueError(f"probe {index} holds non-finite values")
    # class counts may differ between the two heads; each model runs its own
    src_cfg = replace(cfg, num_classes=source_params.dense_b.shape[0])
    tgt_cfg = replace(cfg, num_classes=transferred_params.dense_b.shape[0])
    for probe in probes:
        src_out = forward_batch(source_params, src_cfg, [probe])[1].outputs
        tgt_out = forward_batch(transferred_params, tgt_cfg, [probe])[1].outputs
        for li, (a, b) in enumerate(zip(src_out, tgt_out)):
            if not np.array_equal(a, b):
                raise TransferVerificationError(
                    f"hidden outputs diverge at layer{li + 1}: "
                    f"max abs deviation {float(np.max(np.abs(a - b))):g}"
                )
    return VerifyReport(0.0, None, True)
