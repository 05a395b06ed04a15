"""Plain helpers shared by the test modules; the fixtures stay in ``conftest.py``.

``tests/`` and ``perfbench/tests/`` both have a ``conftest.py``, so when
pytest collects both, ``from conftest import ...`` may find the other one.
"""
import numpy as np

from ctcx import Utterance, encode, frontend, make_corpus
from ctcx.ctc import ctc_forward_backward_batch


def corpus_utterances(alphabet, count, seed):
    return [
        Utterance(utt_id, text, encode(text, alphabet), feats)
        for utt_id, text, feats in make_corpus(alphabet, count, seed)
    ]


def ctc_one(log_probs, labels):
    """``ctc_forward_backward_batch`` on a batch of one (T, C) utterance:
    (neg log-likelihood, (T, C) dlogits, (T, S) log_alpha, (T, S) log_beta),
    the tuple ``oracle_ctc_forward_backward`` returns."""
    log_probs = np.asarray(log_probs, dtype=np.float64)
    log_p, dlogits, alpha, beta = ctc_forward_backward_batch(
        log_probs[:, None], [len(log_probs)], [labels]
    )
    return -float(log_p[0]), dlogits[:, 0], alpha[:, 0], beta[:, 0]


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
