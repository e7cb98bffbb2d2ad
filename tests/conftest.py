import cmath

import numpy as np
import pytest

from relayquant import FiniteCodebook, NetworkConfig

INV_SQRT2 = 1.0 / np.sqrt(2.0)

# The two 3x3 unitary matrices used by the asymmetric benchmark scenario.
U1 = np.array([
    [INV_SQRT2, INV_SQRT2, 0.0],
    [-1j * INV_SQRT2, 1j * INV_SQRT2, 0.0],
    [0.0, 0.0, 1j],
])
U2 = 0.25 * np.array([
    [1 + 1j, 1 - 3j, -np.sqrt(2) + 1j * np.sqrt(2)],
    [-3 - 1j, 1 - 1j, np.sqrt(2) + 1j * np.sqrt(2)],
    [np.sqrt(2) + 1j * np.sqrt(2), np.sqrt(2) + 1j * np.sqrt(2), 2 + 2j],
])


def snr_reference(x, f, g, scalers, p):
    """Independent re-evaluation of the received-SNR formula, scalar Python.

    x, f and g are one vector and one channel state, each of length R;
    scalers are the network's power_scalers and p the linear power.
    """
    p0 = scalers[0] * p
    num = 0j
    den = 1.0
    for r in range(len(x)):
        rho = scalers[r + 1] * p / (1.0 + abs(f[r]) ** 2 * p0)
        num += x[r] * f[r] * g[r] * cmath.sqrt(rho)
        den += abs(x[r]) ** 2 * abs(g[r]) ** 2 * rho
    return p0 * abs(num) ** 2 / den


@pytest.fixture
def cb_c1():
    return FiniteCodebook(np.array([[0, 1, 1]], dtype=complex), label="C1")


@pytest.fixture
def cb_c2():
    return FiniteCodebook(np.array([[0, 1, 1], [1, 0, 1]], dtype=complex), label="C2")


@pytest.fixture
def cb_c3():
    return FiniteCodebook(
        np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex), label="C3")


@pytest.fixture
def cb_c5():
    return FiniteCodebook(
        np.array([[0, 1, 0, 0.8], [0, 0, 1, 0], [1, 0, 0, 0]], dtype=complex), label="C5")


@pytest.fixture
def cb_o1():
    return FiniteCodebook(np.array([[1, 0, 0], [0, -0.8, 1]], dtype=complex), label="O1")


@pytest.fixture
def asym_network():
    """Three asymmetric relays: the hand-picked benchmark parameter set."""
    return NetworkConfig(
        relay_count=3,
        power_scalers=(1.0, 0.5, 2.0, 2.0),
        variance_f=(1.2, 0.8, 1.0),
        variance_g=(1.5, 1.7, 0.7),
    )


@pytest.fixture
def unit_network2():
    return NetworkConfig(2, (1.0, 1.0, 1.0), (1.0, 1.0), (1.0, 1.0))


@pytest.fixture
def unit_network3():
    return NetworkConfig(3, (1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
