"""transfer-desk: the cross-alphabet transfer recipe at a fixed, reduced budget.

Set-up writes a 40-utterance source corpus over 9 letters and a
12-utterance target corpus over 13 letters, half of each with two words and
half with three, as feature caches and reads them back. One measured cycle
trains a source model, writes and reads its checkpoint, then for each of
two target seeds transfers and verifies it and trains the target from
random and from transfer init, for LSTM and BiLSTM at H=16. The gain of
transfer over random init is a median over the target seeds, as in the
acceptance test; one seed alone can go either way at this budget. Training
is bound by per-timestep Python overhead in the network and CTC layers;
there is no beam search and no audio frontend here.
"""
from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from ctcx import network, synthetic, trainer, transfer
from ctcx.text_labels import KAZAKH_LETTERS, Alphabet
from common import train_timed
from stats import group_median_cost

SOURCE_ALPHABET = Alphabet("source", tuple(KAZAKH_LETTERS[:9]) + (" ",))
TARGET_ALPHABET = Alphabet("target", tuple(KAZAKH_LETTERS[:13]) + (" ",))
SOURCE_UTTERANCES = 40
TARGET_UTTERANCES = 12
HIDDEN = 16
SOURCE_EPOCHS = 10
TARGET_EPOCHS = 15
TARGET_SEEDS = 2
LEARNING_RATE = 0.01
BATCH_SIZE = 4
FRAME_SECONDS = synthetic.SynthConfig().frame_seconds
ARCHS = (("lstm", False), ("bilstm", True))
# The default synthetic word-count range, in equal strata: drawn freely, the
# mean utterance length of a 52-utterance set moved utt_ms by about 4% from
# seed to seed.
WORD_COUNTS = (2, 3)
# what a checkpoint stores of the model config (it keeps no seed or dropout)
GEOMETRY = ("feature_dim", "num_classes", "hidden", "num_layers", "bidirectional")


def setup(ctx, base) -> dict:
    """Write this workload's inputs under the fresh directory base."""
    data = {}
    for phase, alphabet, count, key in (
        ("source", SOURCE_ALPHABET, SOURCE_UTTERANCES, 1),
        ("target", TARGET_ALPHABET, TARGET_UTTERANCES, 2),
    ):
        rows = []
        for words in WORD_COUNTS:
            cfg = synthetic.SynthConfig(words_min=words, words_max=words)
            rows += synthetic.write_corpus(base / phase / f"words{words}", alphabet,
                                           count // len(WORD_COUNTS), ctx.subseed(key, words), cfg)
        # raw prototype features, as in the acceptance recipe
        kept, dropped = trainer.load_dataset(rows, alphabet, normalize=False)
        ctx.tally.check(not dropped and len(kept) == count, f"{phase} corpus loads whole")
        data[phase] = kept
    data["dir"] = base
    return data


def _train(data, alphabet, bidirectional, seed, epochs, params=None):
    cfg = network.ModelConfig(feature_dim=13, num_classes=alphabet.num_classes, hidden=HIDDEN,
                              num_layers=2, bidirectional=bidirectional, dropout_keep=1.0,
                              seed=seed)
    tc = trainer.TrainConfig(learning_rate=LEARNING_RATE, momentum=0.9, batch_size=BATCH_SIZE,
                             epochs=epochs, dropout_keep=1.0, seed=seed)
    params, seconds, costs = train_timed(data, alphabet, cfg, tc, params)
    return params, cfg, seconds, costs


def _checkpoint_round_trip(ctx, params, cfg, path) -> "transfer.Checkpoint":
    ckpt = transfer.checkpoint_from_params(params, cfg, SOURCE_ALPHABET)
    transfer.write_checkpoint(ckpt, path)
    back = transfer.read_checkpoint(path)
    with ctx.untraced():
        same = (all(getattr(back.model_config, f) == getattr(cfg, f) for f in GEOMETRY)
                and back.alphabet_symbols == ckpt.alphabet_symbols
                and [n for n, _ in back.tensors] == [n for n, _ in ckpt.tensors]
                and all(a.tobytes() == b.tobytes()
                        for (_, a), (_, b) in zip(back.tensors, ckpt.tensors)))
        again = path.with_suffix(".again")
        transfer.write_checkpoint(back, again)
        same = same and again.read_bytes() == path.read_bytes()
    ctx.tally.check(same, "checkpoint round-trips bit-identically")
    return back


def measure(ctx, state) -> dict:
    epoch_seconds = defaultdict(list)  # (arch, phase, init) -> wall seconds of every epoch
    finals = {}  # (arch, init, target seed) -> final train cost
    source_seed = ctx.subseed(3)
    target_seeds = [ctx.subseed(4, i) for i in range(TARGET_SEEDS)]
    probes = [ctx.rng(5).standard_normal((20, 13)) for _ in range(3)]

    def cycle(index: int) -> None:
        for arch, bidirectional in ARCHS:
            params, cfg, seconds, costs = _train(state["source"], SOURCE_ALPHABET,
                                                 bidirectional, source_seed, SOURCE_EPOCHS)
            epoch_seconds[(arch, "source", "random")] += seconds
            ctx.tally.check(all(math.isfinite(c) for c in costs), f"{arch} source costs finite")

            ckpt = _checkpoint_round_trip(ctx, params, cfg, state["dir"] / f"{arch}-{index}.ckpt")
            target_cfg = network.ModelConfig(feature_dim=13,
                                             num_classes=TARGET_ALPHABET.num_classes,
                                             hidden=HIDDEN, num_layers=2,
                                             bidirectional=bidirectional, dropout_keep=1.0)
            for seed in target_seeds:
                warm, _ = transfer.transfer_weights(ckpt, target_cfg, TARGET_ALPHABET, seed)
                report = transfer.verify_transfer(transfer.params_from_checkpoint(ckpt), warm,
                                                  target_cfg, probes)
                ctx.tally.check(report.ok and report.max_abs_deviation == 0.0,
                                f"{arch} transfer verifies with deviation 0")
                for init, start in (("random", None), ("transfer", warm)):
                    _, _, seconds, costs = _train(state["target"], TARGET_ALPHABET,
                                                  bidirectional, seed, TARGET_EPOCHS, start)
                    epoch_seconds[(arch, "target", init)] += seconds
                    ctx.tally.check(all(math.isfinite(c) for c in costs),
                                    f"{arch} {init} target costs finite")
                    previous = finals.get((arch, init, seed))
                    ctx.tally.check(previous is None or previous == costs[-1],
                                    f"{arch} {init} repeats bit-identically across cycles")
                    finals[(arch, init, seed)] = costs[-1]

    cycles = {"cycle": ctx.closed_loop(cycle)}

    audio = {phase: sum(u.features.shape[0] for u in state[phase]) * FRAME_SECONDS
             for phase in ("source", "target")}
    # every phase of one arch costs the same per audio second of training data
    cost = group_median_cost((arch, s, audio[phase])
                             for (arch, phase, _), seconds in epoch_seconds.items() for s in seconds)
    both = sum(cost.values())
    mean_audio = sum(audio.values()) / (len(state["source"]) + len(state["target"]))

    # the paper's result: median over target seeds of the final-cost gain
    gains = {}
    for arch, _ in ARCHS:
        gains[arch] = float(np.median([
            100.0 * (finals[(arch, "random", seed)] - finals[(arch, "transfer", seed)])
            / finals[(arch, "random", seed)] for seed in target_seeds]))
        ctx.tally.check(gains[arch] > 0, f"{arch} transfer init beats random init")

    ctx.figures.update({
        "train_utt_per_s.lstm": (1.0 / (mean_audio * cost["lstm"]), "1/s"),
        "train_utt_per_s.bilstm": (1.0 / (mean_audio * cost["bilstm"]), "1/s"),
        "transfer_gain_pct.lstm": (gains["lstm"], "%"),
        "transfer_gain_pct.bilstm": (gains["bilstm"], "%"),
        "transfer_gain_pct": (float(np.median(list(gains.values()))), "%"),
    })
    ctx.layer_values["trainer.transfer_gain_pct"] = float(np.median(list(gains.values())))
    # an utterance through one training step of both archs
    return {"audio_s_per_s": 1.0 / both, "utt_ms": 1000.0 * mean_audio * both,
            "cycles": cycles}
