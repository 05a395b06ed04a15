import numpy as np
import pytest

from ctcx import Utterance, builtin_alphabet, encode, frontend, make_corpus


@pytest.fixture(scope="session")
def ru():
    return builtin_alphabet("ru")


@pytest.fixture(scope="session")
def kk():
    return builtin_alphabet("kk")


def corpus_utterances(alphabet, count, seed):
    return [
        Utterance(utt_id, text, encode(text, alphabet), feats)
        for utt_id, text, feats in make_corpus(alphabet, count, seed)
    ]


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class HalfWrite:
    """A file that takes half of what it is given, then fails."""

    def __init__(self, file):
        self.file = file

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, data):
        self.file.write(data[: len(data) // 2])
        raise OSError("no space left on device")


def fail_writes_halfway(monkeypatch) -> None:
    """Make every whole-file write (``frontend.write_atomic``) store half its
    bytes and raise; ``monkeypatch.undo()`` restores normal writes."""
    monkeypatch.setattr(frontend, "open", lambda *a, **k: HalfWrite(open(*a, **k)),
                        raising=False)
