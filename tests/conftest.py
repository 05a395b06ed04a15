import numpy as np
import pytest

from ctcx import Utterance, builtin_alphabet, encode, make_corpus


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
