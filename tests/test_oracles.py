import math

import numpy as np
import pytest

from relayquant import (
    BeamformingVector,
    ChannelState,
    MaxMinRatio,
    NetworkConfig,
    PowerLevel,
    gaussian_tail,
    q_lower_bound,
    received_snr,
    snr_upper_bound_holds,
)
from relayquant.oracles import (
    audit_cophased_maximizer,
    audit_q_bound,
    audit_ratio_cdf,
    audit_ratio_pdf_bound,
    audit_snr_bound,
    dkw_band,
    snr_upper_bound,
)
from relayquant.rng import stream


def test_ratio_cdf_below_one_is_zero():
    dist = MaxMinRatio(3)
    assert dist.cdf(0.5) == 0.0
    assert dist.cdf(1.0) == 0.0


def test_ratio_cdf_two_variate_closed_form():
    dist = MaxMinRatio(2)
    for z in (1.5, 3.0, 10.0, 100.0):
        assert dist.cdf(z) == pytest.approx((z - 1) / (z + 1), rel=1e-12)
    assert dist.cdf(3.0) == pytest.approx(0.5)


def test_ratio_cdf_three_variate_value():
    # Gamma(3) / ((1 + a)(2 + a)) with a = 3/(z-1); z = 2 gives 2/20
    assert MaxMinRatio(3).cdf(2.0) == pytest.approx(0.1, rel=1e-12)


def test_ratio_cdf_monotone_to_one():
    for count in (2, 3, 4, 6):
        dist = MaxMinRatio(count)
        z = np.linspace(1.0, 500.0, 2000)
        vals = dist.cdf(z)
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert dist.cdf(1e9) > 0.999999


def test_ratio_cdf_requires_two_variates():
    with pytest.raises(ValueError):
        MaxMinRatio(1)


def test_ratio_cdf_matches_empirical_dkw():
    for count in (2, 3):
        check = audit_ratio_cdf(count, 10**6, seed=2024)
        assert check.passed, f"sup dev {check.statistic} > band {check.threshold}"
        assert check.threshold == pytest.approx(dkw_band(10**6), rel=1e-12)
        assert check.threshold == pytest.approx(0.00163, abs=2e-5)


def test_ratio_cdf_three_variate_monte_carlo_point():
    dist = MaxMinRatio(3)
    draws = dist.sample(10**6, stream(55, 0, 0))
    frac = float(np.mean(draws <= 2.0))
    sigma = math.sqrt(0.1 * 0.9 / 10**6)
    assert abs(frac - 0.1) < 3 * sigma


def test_ratio_pdf_bound_value_and_sign():
    dist = MaxMinRatio(2)
    assert dist.pdf_lower_bound(3.0) == pytest.approx(1.0 / 18.0, rel=1e-12)
    z = np.linspace(1.01, 50.0, 500)
    assert np.all(dist.pdf_lower_bound(z) >= 0.0)


def test_ratio_pdf_bound_against_histogram():
    check = audit_ratio_pdf_bound(2, 10**7, seed=77)
    assert check.passed, check.detail


def test_q_lower_bound_values():
    assert q_lower_bound(0.0) == 0.0
    val = q_lower_bound(1.0)
    assert val == pytest.approx((1 / math.sqrt(2 * math.pi)) * 0.5 * math.exp(-0.5), rel=1e-12)
    assert val <= gaussian_tail(1.0)
    assert q_lower_bound(6.0) / gaussian_tail(6.0) > 0.95


def test_q_lower_bound_grid():
    check = audit_q_bound(points=1000)
    assert check.passed


def test_snr_upper_bound_zero_vector_trivially_true():
    config = NetworkConfig(2, (1.0, 1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    h = ChannelState(np.array([1.0 + 0j, 1j]), np.array([0.5 + 0j, 2.0 + 0j]))
    x = np.zeros(2, dtype=complex)
    assert snr_upper_bound(h, x, {1}, config, PowerLevel(10.0)) == math.inf
    assert snr_upper_bound_holds(h, x, {1}, config, PowerLevel(10.0))


def test_snr_upper_bound_single_relay_reduction():
    # with one relay the received SNR never exceeds |f|^2 * p0 * P
    config = NetworkConfig(1, (2.0, 1.5), (1.0,), (1.0,))
    gen = np.random.default_rng(4)
    for _ in range(200):
        f = gen.standard_normal(1) + 1j * gen.standard_normal(1)
        g = gen.standard_normal(1) + 1j * gen.standard_normal(1)
        h = ChannelState(f, g)
        p = PowerLevel(float(gen.uniform(0.1, 1e4)))
        snr = received_snr(np.array([1.0 + 0j]), h, config, p)
        assert snr <= abs(f[0]) ** 2 * 2.0 * p.linear * (1 + 1e-12)
        assert snr_upper_bound_holds(h, np.array([1.0 + 0j]), {1}, config, p)


def test_snr_upper_bound_randomized_audit():
    check = audit_snr_bound(100_000, seed=91)
    assert check.passed, check.detail


def test_corrupted_cdf_fails_audit(monkeypatch):
    # sanity: the audit actually has teeth
    import relayquant.oracles as oracles

    original = oracles.MaxMinRatio.cdf

    def skewed(self, z):
        return np.minimum(1.0, original(self, z) * 1.05 + 0.01)

    monkeypatch.setattr(oracles.MaxMinRatio, "cdf", skewed)
    check = audit_ratio_cdf(2, 200_000, seed=13)
    assert not check.passed


def test_snr_upper_bound_scalar_api_matches_audit():
    config = NetworkConfig(2, (1.0, 0.5, 2.0), (1.2, 0.8), (1.5, 0.7))
    gen = np.random.default_rng(9)
    for _ in range(200):
        f = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        g = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        h = ChannelState(f, g)
        x = BeamformingVector(gen.uniform(0, 1, 2) * np.exp(1j * gen.uniform(0, 7, 2)))
        p = PowerLevel(float(gen.uniform(0.5, 1e4)))
        for rset in ({1}, {2}, {1, 2}):
            assert snr_upper_bound_holds(h, x, rset, config, p)


def test_cophased_maximizer_kkt_certificate():
    check = audit_cophased_maximizer(4800, seed=20260808)
    assert check.passed, check.detail
    assert check.statistic < 1e-12


def test_perturbed_maximizer_fails_kkt_audit(monkeypatch):
    import relayquant.oracles as oracles

    original = oracles.constrained_best_snr

    def shrunk(*args):
        mag, val = original(*args)
        return 0.99 * mag, val

    monkeypatch.setattr(oracles, "constrained_best_snr", shrunk)
    check = audit_cophased_maximizer(4800, seed=20260808)
    assert not check.passed
    assert check.statistic > 0.1
