"""Deterministic synthetic corpora for desk-scale training runs.

Each symbol gets a fixed prototype feature vector drawn from a seed keyed
by the symbol's code point, so two alphabets that share letters share
prototypes. An utterance is the concatenation of 3 to 5 noisy copies of
each transcript symbol's prototype. Features are kept on the float32 grid
so cache files round-trip exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .frontend import FeatureConfig, ManifestRow, write_feature_cache
from .text_labels import Alphabet

_FEATURES = FeatureConfig()  # synthetic frames stand in for this recipe's MFCC frames
FRAMES_MIN = 3  # frames per symbol copy, drawn from [FRAMES_MIN, FRAMES_MAX]
FRAMES_MAX = 5


@dataclass(frozen=True)
class SynthConfig:
    noise_scale: float = 0.3
    proto_seed: int = 0
    words_min: int = 2
    words_max: int = 3
    word_len_min: int = 3
    word_len_max: int = 6

    def __post_init__(self) -> None:
        if not 1 <= self.words_min <= self.words_max:
            raise ValueError("bad words_min/words_max")
        if not 1 <= self.word_len_min <= self.word_len_max:
            raise ValueError("bad word_len_min/word_len_max")
        if not 0.0 <= self.noise_scale < math.inf:
            raise ValueError(f"bad noise_scale {self.noise_scale}")
        if self.proto_seed < 0:
            raise ValueError(f"proto_seed {self.proto_seed} is negative")

    @property
    def frame_seconds(self) -> float:
        """Seconds per frame (the MFCC hop), used for manifest durations."""
        return _FEATURES.hop_ms / 1000


def symbol_prototype(ch: str, proto_seed: int = SynthConfig.proto_seed) -> np.ndarray:
    """Fixed feature vector for one symbol, independent of any alphabet."""
    if len(ch) != 1:
        raise ValueError(f"expected a single symbol, got {ch!r}")
    rng = np.random.default_rng(np.random.SeedSequence((proto_seed, ord(ch))))
    return rng.standard_normal(_FEATURES.n_mfcc)


def random_transcript(alphabet: Alphabet, rng: np.random.Generator, cfg: SynthConfig = SynthConfig()) -> str:
    """Space-separated words of letters drawn uniformly from the alphabet."""
    letters = sorted(alphabet.letters)
    n_words = int(rng.integers(cfg.words_min, cfg.words_max + 1))
    words = []
    for _ in range(n_words):
        n = int(rng.integers(cfg.word_len_min, cfg.word_len_max + 1))
        words.append("".join(letters[i] for i in rng.integers(0, len(letters), size=n)))
    return " ".join(words)


def synth_features(text: str, alphabet: Alphabet, rng: np.random.Generator,
                   cfg: SynthConfig = SynthConfig()) -> np.ndarray:
    """Noisy prototype frames for each symbol of the transcript, in order."""
    if not text:
        raise ValueError("empty transcript")
    blocks = []
    for ch in text:
        if ch not in alphabet:
            raise ValueError(f"symbol {ch!r} not in alphabet {alphabet.name!r}")
        proto = symbol_prototype(ch, cfg.proto_seed)
        n = int(rng.integers(FRAMES_MIN, FRAMES_MAX + 1))
        blocks.append(proto + cfg.noise_scale * rng.standard_normal((n, proto.size)))
    return np.vstack(blocks).astype(np.float32).astype(np.float64)


def make_corpus(alphabet: Alphabet, count: int, seed: int,
                cfg: SynthConfig = SynthConfig()) -> list[tuple[str, str, np.ndarray]]:
    """(utterance id, transcript, T x F features) triples.

    Each utterance is a pure function of (seed, index), so growing the
    corpus never changes earlier entries.
    """
    if count < 1:
        raise ValueError("count must be positive")
    corpus = []
    for index in range(count):
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        text = random_transcript(alphabet, rng, cfg)
        features = synth_features(text, alphabet, rng, cfg)
        corpus.append((f"synth-{index:04d}", text, features))
    return corpus


def write_corpus(out_dir, alphabet: Alphabet, count: int, seed: int,
                 cfg: SynthConfig = SynthConfig()) -> list[ManifestRow]:
    """Write feature cache files under out_dir and return manifest rows."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for utt_id, text, features in make_corpus(alphabet, count, seed, cfg):
        path = out / f"{utt_id}.mfcc"
        write_feature_cache(features, path)
        duration = round(features.shape[0] * cfg.frame_seconds, 6)
        rows.append(ManifestRow(str(path), text, duration))
    return rows
