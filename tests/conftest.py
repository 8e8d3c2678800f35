import os
from unittest import mock

import pytest

from twistscope import curve_from_coeffs


@pytest.fixture(autouse=True)
def restore_environment():
    """Undo what an in-process cli.main leaves in os.environ (OPENBLAS_NUM_THREADS)."""
    with mock.patch.dict(os.environ):
        yield


@pytest.fixture(scope="session")
def genus2_pair():
    return (
        curve_from_coeffs((0, -1, 0, 0, 0, 1)),  # x^5 - x
        curve_from_coeffs((0, 4, 0, 0, 0, 1)),  # x^5 + 4x
    )


@pytest.fixture(scope="session")
def genus4_pair():
    return (
        curve_from_coeffs((0, 1, 0, 0, 0, 0, 0, 0, 0, 1)),  # x^9 + x
        curve_from_coeffs((0, 16, 0, 0, 0, 0, 0, 0, 0, 1)),  # x^9 + 16x
    )


@pytest.fixture(scope="session")
def genus1_curve():
    return curve_from_coeffs((0, -1, 0, 1))  # x^3 - x

