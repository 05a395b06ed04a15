"""Plain helpers shared by the test modules; the fixtures stay in ``conftest.py``.

``tests/`` and ``perfbench/tests/`` both have a ``conftest.py``, so when
pytest collects both, ``from conftest import ...`` may find the other one.
"""
import json
import struct
from typing import NamedTuple

import numpy as np

from ctcx import Utterance, encode, forward, frontend, make_corpus
from ctcx.ctc import ctc_forward_backward_batch


def corpus_utterances(alphabet, count, seed):
    return [
        Utterance(utt_id, text, encode(text, alphabet), feats)
        for utt_id, text, feats in make_corpus(alphabet, count, seed)
    ]


def hidden_outputs(params, cfg, features):
    """The eval-mode (T, R) output of every recurrent layer for one utterance."""
    return [out[:, 0] for out in forward(params, cfg, features)[1].outputs]


def direction(params, layer_index, cfg, d):
    """(w_input (4H, D), w_recurrent (4H, H), bias (4H)) of direction d of one
    layer (0 forward, 1 backward): slice d of ``params.layer``, as views."""
    return tuple(w[d] for w in params.layer(layer_index, cfg))


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


class Raw(NamedTuple):
    """A header given as JSON text, padded to 64 bytes with ``fill``."""

    text: str
    fill: bytes = b"\0"


def rewrite_header(path, mutate):
    """Replace a checkpoint's JSON header by ``mutate(header)``, keeping the payload.

    ``mutate`` returns a JSON value, dumped as ``write_checkpoint`` dumps its
    header, or a ``Raw`` header.
    """
    raw = path.read_bytes()
    _, header_len = struct.unpack_from("<II", raw, 4)
    new = mutate(json.loads(raw[12 : 12 + header_len]))
    if not isinstance(new, Raw):
        new = Raw(json.dumps(new, ensure_ascii=False))
    blob = new.text.encode("utf-8", "surrogatepass")  # a lone surrogate goes in as it is
    prefix = raw[:4] + struct.pack("<II", 1, len(blob)) + blob
    payload_start = 12 + header_len + (-(12 + header_len)) % 64
    path.write_bytes(prefix + new.fill * ((-len(prefix)) % 64) + raw[payload_start:])
