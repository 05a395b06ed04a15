import numpy as np
import pytest

from ctcx import builtin_alphabet


@pytest.fixture(scope="session")
def ru():
    return builtin_alphabet("ru")


@pytest.fixture(scope="session")
def kk():
    return builtin_alphabet("kk")


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
