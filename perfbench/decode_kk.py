"""decode-kk: greedy and beam decoding with a Kazakh (C=43) BiLSTM at H=128.

Set-up trains the model for a fixed short budget from a fixed seed, writes
its checkpoint and writes a held-out set drawn from the run seed, whose word
count runs from 1 to 5 in equal strata of 4- and 5-letter words, so
utterance lengths spread but their mix is nearly the same for every seed.
Each measured cycle reads the checkpoint back and runs every held-out utterance
through ``evaluate`` once with the greedy decoder and once with beam width 8.
Inference only: no backward pass, no optimizer, and at H=128 the forward
cost leans on BLAS rather than on Python overhead.
"""
from __future__ import annotations

from itertools import groupby

import numpy as np

from ctcx import ctc, network, synthetic, trainer, transfer
from ctcx.text_labels import builtin_alphabet
from common import timed, train_timed
from stats import median

KK = builtin_alphabet("kk")
HIDDEN = 128
TRAIN_UTTERANCES = 12
TRAIN_EPOCHS = 6
# The model does not depend on the run seed. How much work beam search does
# depends on the model's output distributions: models trained from different
# seeds differed by a quarter in beam time over the same number of frames.
MODEL_SEED = 0
LEARNING_RATE = 0.1
HELD_OUT_WORDS = (1, 2, 3, 4, 5)
HELD_OUT_PER_STRATUM = 8
BEAM_WIDTH = 8
FRAME_SECONDS = synthetic.SynthConfig().frame_seconds


def setup(ctx, base) -> dict:
    """Write this workload's inputs under the fresh directory base."""
    rows = synthetic.write_corpus(base / "train", KK, TRAIN_UTTERANCES, MODEL_SEED)
    train_set, dropped = trainer.load_dataset(rows, KK)
    ctx.tally.check(not dropped, "training corpus loads whole")

    held_out = []
    for words in HELD_OUT_WORDS:
        cfg = synthetic.SynthConfig(words_min=words, words_max=words, word_len_min=4,
                                    word_len_max=5)
        rows = synthetic.write_corpus(base / f"held{words}", KK, HELD_OUT_PER_STRATUM,
                                      ctx.subseed(2, words), cfg)
        kept, dropped = trainer.load_dataset(rows, KK)
        ctx.tally.check(not dropped, f"held-out stratum {words} loads whole")
        held_out.extend((words, utt) for utt in kept)

    seed = MODEL_SEED
    model_cfg = network.ModelConfig(feature_dim=13, num_classes=KK.num_classes, hidden=HIDDEN,
                                    num_layers=2, bidirectional=True, dropout_keep=1.0,
                                    seed=seed)
    train_cfg = trainer.TrainConfig(learning_rate=LEARNING_RATE, epochs=TRAIN_EPOCHS,
                                    dropout_keep=1.0, seed=seed)
    params, _, costs = train_timed(train_set, KK, model_cfg, train_cfg)
    ctx.tally.check(bool(np.all(np.isfinite(costs))), "set-up training costs finite")
    path = base / "kk.ckpt"
    transfer.save_checkpoint(params, model_cfg, KK, path)
    return {"checkpoint": path, "held_out": held_out}  # held_out: (stratum, utterance)


def _collapse_argmax(log_probs: np.ndarray) -> tuple[int, ...]:
    blank = log_probs.shape[1] - 1
    return tuple(k for k, _ in groupby(np.argmax(log_probs, axis=1).tolist()) if k != blank)


def _levenshtein(ref, hyp) -> int:
    row = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        prev, row[0] = row[0], i
        for j, h in enumerate(hyp, 1):
            prev, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, prev + (r != h))
    return row[-1]


def _check_outputs(ctx, params, cfg, held_out, greedy_ler, beam_ler) -> float:
    """Recount both decoders outside ``evaluate``; returns the recounted beam LER."""
    beam_edits = 0
    total_ref = 0
    for (_, utt), g_ler, b_ler in zip(held_out, greedy_ler, beam_ler):
        logits, _ = network.forward(params, cfg, utt.features, train_mode=False)
        log_probs = network.log_softmax(logits)
        greedy = ctc.greedy_decode(log_probs)
        ctx.tally.check(greedy == _collapse_argmax(log_probs),
                        "greedy output is the collapsed per-frame argmax")
        ctx.tally.check(g_ler == _levenshtein(utt.labels, greedy) / len(utt.labels),
                        "greedy LER matches a recount")
        edits = _levenshtein(utt.labels, ctc.beam_search_decode(log_probs, BEAM_WIDTH))
        ctx.tally.check(b_ler == edits / len(utt.labels), "beam LER matches a recount")
        beam_edits += edits
        total_ref += len(utt.labels)
    return beam_edits / total_ref


def _load_model(ctx, path):
    ckpt = transfer.read_checkpoint(path)
    cfg = ckpt.model_config
    ctx.tally.check(cfg.hidden == HIDDEN and cfg.num_classes == KK.num_classes,
                    "checkpoint reads back with its geometry")
    return transfer.params_from_checkpoint(ckpt), cfg


def measure(ctx, state) -> dict:
    held_out = state["held_out"]
    times = {"greedy": [[] for _ in held_out], "beam": [[] for _ in held_out]}
    lers = {}

    def cycle(index: int) -> None:
        params, cfg = _load_model(ctx, state["checkpoint"])
        for i, (_, utt) in enumerate(held_out):
            for decoder in ("greedy", "beam"):
                (_, ler), seconds = timed(trainer.evaluate, params, cfg, [utt], decoder,
                                          BEAM_WIDTH)
                times[decoder][i].append(seconds)
                first = lers.setdefault((decoder, i), ler)
                ctx.tally.check(first == ler, f"{decoder} LER repeats across cycles")

    cycles = {"cycle": ctx.closed_loop(cycle)}

    greedy_ler = [lers[("greedy", i)] for i in range(len(held_out))]
    beam_ler = [lers[("beam", i)] for i in range(len(held_out))]
    params, cfg = _load_model(ctx, state["checkpoint"])
    recount = _check_outputs(ctx, params, cfg, held_out, greedy_ler, beam_ler)
    lengths = [len(u.labels) for _, u in held_out]
    corpus_beam_ler = sum(l * n for l, n in zip(beam_ler, lengths)) / sum(lengths)
    ctx.tally.check(abs(corpus_beam_ler - recount) < 1e-12, "corpus beam LER matches a recount")

    # per utterance, the median of its cycles
    ctx.add_latency_figures("greedy_ms", [1000.0 * median(ts) for ts in times["greedy"]])
    ctx.add_latency_figures("beam_ms", [1000.0 * median(ts) for ts in times["beam"]])
    ctx.figures["beam_ler"] = (recount, "ratio")
    ctx.layer_values["ctc.beam_ler"] = recount

    audio = sum(u.features.shape[0] * FRAME_SECONDS for _, u in held_out)
    utt_s = [median(g) + median(b) for g, b in zip(times["greedy"], times["beam"])]
    return {"audio_s_per_s": audio / sum(utt_s), "utt_ms": 1000.0 * sum(utt_s) / len(utt_s),
            "cycles": cycles}
