"""Momentum-SGD training loop, dataset handling, and the 4-scenario matrix.

Training is deterministic: utterance order, dropout masks, and weight init
all derive from the training seed, so identical inputs give byte-identical
metrics logs. Each minibatch runs as one time-major ``(T_max, B, ·)`` pass
through the network and CTC (``forward_batch``, ``ctc_forward_backward_batch``,
``backward_batch``); its gradient is the sum over the batch divided by the
actual batch length. Evaluation runs one utterance at a time.
"""
from __future__ import annotations

import logging
import math
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .ctc import (
    beam_search_decode,
    corpus_ler,
    ctc_forward_backward_batch,
    ctc_loss,
    greedy_decode,
)
from .frontend import (
    FeatureConfig,
    ManifestRow,
    feature_normalize,
    read_feature_cache,
    wav_features,
)
from .network import (
    ModelConfig,
    ModelParams,
    backward_batch,
    forward,
    forward_batch,
    init_params,
    log_softmax,
    validate_params,
    zeros_like_params,
)
from .text_labels import Alphabet, encode, normalize_transcript
from .transfer import Checkpoint, transfer_weights

logger = logging.getLogger(__name__)

DECODERS = ("greedy", "beam")
ARCH_NAMES = {"lstm": "LSTM", "bilstm": "BiLSTM"}  # arch name -> scenario label


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.0005
    momentum: float = 0.9
    batch_size: int = 4
    epochs: int = 500
    dropout_keep: float = 0.5
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    grad_clip_norm: float | None = 5.0  # None disables clipping
    seed: int = 0
    eval_decoder: str = "greedy"
    beam_width: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.learning_rate < math.inf or not 0.0 <= self.momentum < 1.0:
            raise ValueError("learning_rate must be finite and >= 0 and momentum in [0, 1)")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be positive")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ValueError(f"dropout_keep {self.dropout_keep} outside (0, 1]")
        if len(self.split) != 3 or not all(p >= 0 for p in self.split):  # p < 0 passes NaN
            raise ValueError(f"bad split {self.split}")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ValueError(f"split {self.split} does not sum to 1")
        if self.grad_clip_norm is not None and not 0.0 < self.grad_clip_norm < math.inf:
            raise ValueError(f"bad grad_clip_norm {self.grad_clip_norm}")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} is negative")
        if self.eval_decoder not in DECODERS:
            raise ValueError(f"unknown eval_decoder {self.eval_decoder!r}")
        if self.beam_width < 1:
            raise ValueError(f"bad beam_width {self.beam_width}")


def arch_config(arch: str, feature_dim: int, alphabet: Alphabet, hidden: int) -> ModelConfig:
    """The ``ModelConfig`` of an ``ARCH_NAMES`` architecture for an alphabet."""
    return ModelConfig(feature_dim=feature_dim, num_classes=alphabet.num_classes,
                       hidden=hidden, bidirectional=arch == "bilstm")


@dataclass
class MetricsRow:
    """One epoch's row of ``metrics.csv``; its fields are the CSV columns, in order."""

    epoch: int
    train_cost: float
    train_ler: float
    val_cost: float
    val_ler: float

    def to_csv(self) -> str:
        # repr keeps the shortest exact float form, so logs are byte-stable
        epoch, *values = astuple(self)
        return ",".join([str(epoch)] + [repr(float(v)) for v in values])

    def metrics(self) -> dict[str, float]:
        """Every column but ``epoch``, by name."""
        return {name: value for name, value in asdict(self).items() if name != "epoch"}

    def summary(self, digits: int) -> str:
        """``name=value`` pairs of the metrics, for logs."""
        return " ".join(f"{name}={value:.{digits}f}" for name, value in self.metrics().items())


METRICS_HEADER = ",".join(f.name for f in fields(MetricsRow))


@dataclass
class OptimizerState:
    velocity: ModelParams


@dataclass
class Utterance:
    utt_id: str
    text: str
    labels: tuple[int, ...]
    features: np.ndarray  # (T, F) float64


def min_frames_rule(num_labels: int) -> int:
    """Frames required to keep an utterance: 2L+1 (extended label length)."""
    return 2 * num_labels + 1


def load_dataset(
    rows, alphabet: Alphabet, *, normalize: bool = True
) -> tuple[list[Utterance], list[tuple[ManifestRow, str]]]:
    """Build utterances from manifest rows; returns (kept, dropped-with-reason).

    Feature cache files (.mfcc) are read directly; WAV files go through the
    full frontend (resampled when needed). Rows whose label sequence cannot
    fit the frame count (2L+1 > T) are dropped here, never mid-epoch; each
    drop is logged as it happens. A kept row whose feature dimension differs
    from the first kept row's raises ValueError naming both files.
    """
    kept: list[Utterance] = []
    dropped: list[tuple[ManifestRow, str]] = []

    def drop(row: ManifestRow, reason: str) -> None:
        logger.warning("dropped %s: %s", row.audio, reason)
        dropped.append((row, reason))

    for row in rows:
        path = Path(row.audio)
        try:
            if path.suffix == ".mfcc":
                values = read_feature_cache(path)
            else:
                values, _ = wav_features(path, FeatureConfig())
        except (OSError, ValueError) as e:
            drop(row, f"unreadable audio: {e}")
            continue

        text = normalize_transcript(row.text, alphabet)
        if not text:
            drop(row, "empty transcript after normalization")
            continue
        labels = encode(text, alphabet)
        if min_frames_rule(len(labels)) > values.shape[0]:
            drop(row, f"label length {len(labels)} needs {min_frames_rule(len(labels))} frames, "
                 f"got {values.shape[0]}")
            continue

        if not kept:
            first = row
        elif values.shape[1] != kept[0].features.shape[1]:
            raise ValueError(f"{row.audio}: feature dim {values.shape[1]}, "
                             f"but {first.audio} has {kept[0].features.shape[1]}")
        if normalize:
            values = feature_normalize(values)
        kept.append(Utterance(path.stem, text, labels, values))
    return kept, dropped


def split_dataset(items, split, seed: int):
    """Deterministic shuffle then floor-proportion partition, remainder to train."""
    items = list(items)
    n = len(items)
    if n < 10:
        raise ValueError(f"need at least 10 items to split, got {n}")
    if len(split) != 3 or abs(sum(split) - 1.0) > 1e-9:
        raise ValueError(f"bad split {split}")
    order = np.random.default_rng(seed).permutation(n)
    n_val = int(n * split[1])
    n_test = int(n * split[2])
    n_train = n - n_val - n_test
    shuffled = [items[i] for i in order]
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_val],
        shuffled[n_train + n_val :],
    )


def global_grad_norm(grads: ModelParams) -> float:
    # per-tensor partial sums in spec order; one np.sum over the vector rounds differently
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.tensors.values())))


def clip_gradients(grads: ModelParams, max_norm: float) -> float:
    """Scale grads in place to the given global norm; returns pre-clip norm."""
    norm = global_grad_norm(grads)
    if norm > max_norm:
        grads.vector *= max_norm / norm
    return norm


def momentum_step(
    params: ModelParams, grads: ModelParams, state: OptimizerState, cfg: TrainConfig
) -> bool:
    """Classical momentum update in place: v <- mu v + g, theta <- theta - lr v.

    Gradients are globally norm-clipped first. A non-finite gradient skips
    the whole step (logged) so one bad utterance cannot poison the weights.
    """
    if not np.all(np.isfinite(grads.vector)):
        name = next(n for n, g in grads.tensors.items() if not np.all(np.isfinite(g)))
        logger.warning("non-finite gradient in %s; step skipped", name)
        return False
    if cfg.grad_clip_norm is not None:
        clip_gradients(grads, cfg.grad_clip_norm)
    v = state.velocity.vector
    v *= cfg.momentum
    v += grads.vector
    params.vector -= cfg.learning_rate * v
    return True


def _dropout_seed(cfg: TrainConfig, epoch: int, position: int) -> int:
    return int(np.random.SeedSequence((cfg.seed, epoch, 1, position)).generate_state(1)[0])


def _epoch_order(cfg: TrainConfig, epoch: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, epoch, 0)))
    return rng.permutation(n)


def train_epoch(
    params: ModelParams,
    model_cfg: ModelConfig,
    data: list[Utterance],
    cfg: TrainConfig,
    state: OptimizerState,
    epoch: int,
) -> tuple[float, float]:
    """One pass over the data; returns (mean utterance cost, train LER).

    The LER is measured on the training-mode outputs (dropout active), so
    it is a progress signal, not a clean evaluation.
    """
    if not data:
        raise ValueError("empty training set")
    order = _epoch_order(cfg, epoch, len(data))
    total_cost = 0.0
    decoded = []

    for start in range(0, len(order), cfg.batch_size):
        batch = [data[i] for i in order[start : start + cfg.batch_size]]
        seeds = None  # forward_batch draws no masks at keep 1.0
        if model_cfg.dropout_keep < 1.0:
            seeds = [_dropout_seed(cfg, epoch, start + offset) for offset in range(len(batch))]
        logits, cache = forward_batch(params, model_cfg, [u.features for u in batch], seeds)
        log_probs = log_softmax(logits)
        log_p, dlogits, _, _ = ctc_forward_backward_batch(
            log_probs, cache.lengths, [u.labels for u in batch]
        )
        for b, utt in enumerate(batch):
            if log_p[b] == -np.inf:
                raise RuntimeError(
                    f"utterance {utt.utt_id} became infeasible mid-epoch; "
                    f"the load-time filter should have dropped it"
                )
            total_cost += -float(log_p[b])
            decoded.append((utt.labels, greedy_decode(log_probs[: cache.lengths[b], b])))
        batch_grads = backward_batch(params, cache, dlogits)
        batch_grads.vector *= 1.0 / len(batch)
        momentum_step(params, batch_grads, state, cfg)

    return total_cost / len(data), corpus_ler(decoded)


def recognize(params: ModelParams, model_cfg: ModelConfig, features: np.ndarray,
              decoder: str, beam_width: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Eval-mode (T, C) log-probabilities of one utterance and its decoded label ids."""
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}")
    logits, _ = forward(params, model_cfg, features, train_mode=False)
    log_probs = log_softmax(logits)
    if decoder == "greedy":
        return log_probs, greedy_decode(log_probs)
    return log_probs, beam_search_decode(log_probs, beam_width)


def evaluate(
    params: ModelParams,
    model_cfg: ModelConfig,
    data: list[Utterance],
    decoder: str = TrainConfig.eval_decoder,
    beam_width: int = TrainConfig.beam_width,
) -> tuple[float, float]:
    """Eval-mode mean cost and corpus LER; deterministic."""
    if not data:
        raise ValueError("empty evaluation set")
    total_cost = 0.0
    decoded = []
    for utt in data:
        log_probs, hyp = recognize(params, model_cfg, utt.features, decoder, beam_width)
        total_cost += ctc_loss(log_probs, utt.labels)
        decoded.append((utt.labels, hyp))
    return total_cost / len(data), corpus_ler(decoded)


def train(
    train_set: list[Utterance],
    val_set: list[Utterance],
    alphabet: Alphabet,
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    params: ModelParams | None = None,
    metrics_path=None,
) -> tuple[ModelParams, list[MetricsRow]]:
    """Full training run; returns the trained params and per-epoch metrics.

    ``params`` may carry transferred weights; otherwise a fresh model is
    initialized from the training seed. Metrics are written per epoch when
    ``metrics_path`` is given. An empty val set records NaN val columns.
    """
    if not train_set:
        raise ValueError("empty training set")
    if alphabet.num_classes != model_cfg.num_classes:
        raise ValueError(
            f"alphabet {alphabet.name!r} needs {alphabet.num_classes} classes, "
            f"model config has {model_cfg.num_classes}"
        )
    effective_cfg = replace(model_cfg, dropout_keep=cfg.dropout_keep, seed=cfg.seed)
    if params is None:
        params = init_params(effective_cfg)
    else:
        validate_params(params, effective_cfg)

    state = OptimizerState(zeros_like_params(params))
    rows: list[MetricsRow] = []
    out = open(metrics_path, "w", encoding="utf-8") if metrics_path is not None else None
    try:
        if out:
            out.write(METRICS_HEADER + "\n")
        log_every = max(1, cfg.epochs // 10)
        for epoch in range(1, cfg.epochs + 1):
            train_metrics = train_epoch(params, effective_cfg, train_set, cfg, state, epoch)
            if val_set:
                val_metrics = evaluate(
                    params, effective_cfg, val_set, cfg.eval_decoder, cfg.beam_width
                )
            else:
                val_metrics = (float("nan"), float("nan"))
            row = MetricsRow(epoch, *train_metrics, *val_metrics)
            rows.append(row)
            if out:
                out.write(row.to_csv() + "\n")
                out.flush()
            if epoch % log_every == 0 or epoch == cfg.epochs:
                logger.info("epoch %d/%d %s", epoch, cfg.epochs, row.summary(4))
    finally:
        if out:
            out.close()
    return params, rows


@dataclass
class ScenarioResult:
    """One trained scenario; ``asdict`` of it is its ``summary.json`` entry."""

    name: str
    arch: str
    init: str
    epochs: int
    final: MetricsRow


@dataclass
class ExperimentResult:
    """The matrix; ``asdict`` of it is ``summary.json``."""

    scenarios: list[ScenarioResult]
    improvements_percent: dict[str, dict[str, float]]
    warnings: list[str]


def _improvement_percent(baseline: float, transfer: float) -> float:
    if baseline == 0.0:
        return float("nan")
    return 100.0 * (baseline - transfer) / baseline


def run_experiment_matrix(
    utterances: list[Utterance],
    alphabet: Alphabet,
    cfg: TrainConfig,
    hidden: int = ModelConfig.hidden,
    source_checkpoints: dict[str, Checkpoint] | None = None,
    metrics_dir=None,
) -> ExperimentResult:
    """Train {LSTM, BiLSTM} x {random, transfer} on one shared split.

    ``source_checkpoints`` maps arch name to the source model for the
    transfer rows; a checkpoint only fits the arch it was trained as, so
    the two rows need separate sources. Missing sources downgrade to a
    warning and the baseline rows alone.
    """
    source_checkpoints = source_checkpoints or {}
    train_set, val_set, _ = split_dataset(utterances, cfg.split, cfg.seed)
    feature_dim = utterances[0].features.shape[1]
    # every source is transferred before the first run, so a misfit fails fast
    runs = []  # (name, arch, init, model config, initial params)
    warnings: list[str] = []
    for arch, label in ARCH_NAMES.items():
        model_cfg = arch_config(arch, feature_dim, alphabet, hidden)
        runs.append((label, arch, "random", model_cfg, None))
        source = source_checkpoints.get(arch)
        if source is None:
            warnings.append(f"no source checkpoint for {label}; transfer row skipped")
            continue
        params = transfer_weights(source, model_cfg, alphabet, cfg.seed)[0]
        name = f"{label} with {source.alphabet_name} model"
        runs.append((name, arch, "transfer", model_cfg, params))

    scenarios: list[ScenarioResult] = []
    for name, arch, init, model_cfg, params in runs:
        metrics_path = Path(metrics_dir) / f"{arch}-{init}.csv" if metrics_dir is not None else None
        logger.info("training scenario: %s", name)
        final = train(train_set, val_set, alphabet, model_cfg, cfg, params, metrics_path)[1][-1]
        scenarios.append(ScenarioResult(name, arch, init, final.epoch, final))

    finals = {(s.arch, s.init): s.final.metrics() for s in scenarios}
    improvements = {
        arch: {name: _improvement_percent(value, finals[arch, "transfer"][name])
               for name, value in finals[arch, "random"].items()}
        for arch in ARCH_NAMES if (arch, "transfer") in finals
    }
    return ExperimentResult(scenarios, improvements, warnings)
