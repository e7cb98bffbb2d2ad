import math

import numpy as np
import pytest

from relayquant import (
    FiniteCodebook,
    MaxMinRatio,
    NetworkConfig,
    PowerLevel,
    SimulationPlan,
    SrsSpec,
    estimate_ser,
    gaussian_tail,
    q_lower_bound,
)
from relayquant.oracles import (
    audit_cophased_maximizer,
    audit_gaussian_tail,
    audit_q_bound,
    audit_ratio_cdf,
    audit_ratio_pdf_bound,
    audit_snr_bound,
    dkw_band,
    single_relay_ser,
    snr_upper_bounds,
)
from relayquant.rng import stream
from conftest import snr_per_vector


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


def test_ratio_pdf_bound_passes_correct_sampler_at_small_counts():
    # an empty bin keeps the slack of the bound's own sigma
    for seed in range(1, 51):
        check = audit_ratio_pdf_bound(2, 100, seed)
        assert check.passed, (seed, check.statistic)


def test_wrong_law_fails_pdf_audit(monkeypatch):
    import relayquant.oracles as oracles

    original = oracles.MaxMinRatio.sample
    monkeypatch.setattr(oracles.MaxMinRatio, "sample",
                        lambda self, n, gen: original(self, n, gen) ** 1.5)
    for seed in range(1, 6):
        assert not audit_ratio_pdf_bound(2, 10**4, seed).passed, seed


def test_q_lower_bound_values():
    assert q_lower_bound(0.0) == 0.0
    val = q_lower_bound(1.0)
    assert val == pytest.approx((1 / math.sqrt(2 * math.pi)) * 0.5 * math.exp(-0.5), rel=1e-12)
    assert val <= gaussian_tail(1.0)
    assert q_lower_bound(6.0) / gaussian_tail(6.0) > 0.95


def test_q_lower_bound_grid():
    check = audit_q_bound(points=1000)
    assert check.passed


def test_gaussian_tail_audit_passes_and_catches_a_perturbed_table(monkeypatch):
    import relayquant.montecarlo as montecarlo

    check = audit_gaussian_tail()
    assert check.passed and 0.0 < check.statistic <= check.threshold == 5e-13
    # a relative error of 1e-12 in every piece's constant term
    monkeypatch.setattr(montecarlo, "_TAIL_LEFT", montecarlo._TAIL_LEFT * (1.0 + 1e-12))
    check = audit_gaussian_tail()
    assert not check.passed and check.statistic > 9e-13


def test_ratio_sample_equals_row_reductions():
    # sample reduces over the relay axis by a chain of elementwise maxima
    # and minima; it must give the bits of max(axis=1) / min(axis=1)
    for count in (2, 3, 4, 7):
        draws = stream(11, 0, count).standard_exponential((5000, count))
        expected = draws.max(axis=1) / draws.min(axis=1)
        got = MaxMinRatio(count).sample(5000, stream(11, 0, count))
        assert got.tobytes() == expected.tobytes(), count


def test_snr_upper_bound_zero_vector_trivially_true():
    config = NetworkConfig(2, (1.0, 1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    f, g = np.array([[1.0 + 0j, 1j]]), np.array([[0.5 + 0j, 2.0 + 0j]])
    x = np.zeros((1, 2), dtype=complex)
    cap = snr_upper_bounds(f, g, x, {1}, config, 10.0)[0]
    assert cap == math.inf
    assert snr_per_vector(x, f, g, config, PowerLevel(10.0))[0, 0] <= cap


def test_snr_upper_bound_single_relay_reduction():
    # with one relay the received SNR never exceeds |f|^2 * p0 * P
    config = NetworkConfig(1, (2.0, 1.5), (1.0,), (1.0,))
    gen = np.random.default_rng(4)
    for _ in range(200):
        f = gen.standard_normal(1) + 1j * gen.standard_normal(1)
        g = gen.standard_normal(1) + 1j * gen.standard_normal(1)
        p = PowerLevel(float(gen.uniform(0.1, 1e4)))
        x = np.array([[1.0 + 0j]])
        snr = snr_per_vector(x, f[None], g[None], config, p)[0, 0]
        assert snr <= abs(f[0]) ** 2 * 2.0 * p.linear * (1 + 1e-12)
        assert snr <= snr_upper_bounds(f[None], g[None], x, {1}, config, p.linear)[0]


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


def test_inflated_snr_geometry_fails_cap_audit(monkeypatch):
    # the audit reads its SNR from the program's geometry, so a kernel that
    # inflates the SNR numerator breaks the cap
    import relayquant.oracles as oracles

    original = oracles.snr_geometry

    def inflated(*args):
        rho, a, b = original(*args)
        return rho, 1e3 * a, b

    monkeypatch.setattr(oracles, "snr_geometry", inflated)
    check = audit_snr_bound(100_000, seed=91)
    assert not check.passed


FIG2_NETWORK = NetworkConfig(3, (1.0, 0.5, 2.0, 2.0), (1.2, 0.8, 1.0), (1.5, 1.7, 0.7))


@pytest.mark.parametrize("rows", [
    np.eye(3),
    # relay 2 unused; relay 1 at its largest magnitude, 0.6, whatever its phase
    np.array([[0.6j, 0, 0], [0.3, 0, 0], [0, 0, np.exp(2j)]]),
], ids=["srs", "subset"])
def test_single_relay_ser_against_plain_monte_carlo(rows):
    curve = estimate_ser(SimulationPlan(FIG2_NETWORK, FiniteCodebook(rows), (0.0, 5.0, 10.0),
                                        65_536, 4242))
    for p_db, ser, err in zip(curve.p_db, curve.ser, curve.std_err):
        exact = single_relay_ser(FIG2_NETWORK, rows, PowerLevel.from_db(p_db))
        assert abs(ser - exact) <= 4.0 * err, (p_db, ser, exact)


def test_single_relay_ser_rejects_vectors_on_several_relays():
    with pytest.raises(ValueError, match="exactly one relay"):
        single_relay_ser(FIG2_NETWORK, [[1, 0, 0], [0, 0.5, 0.5]], PowerLevel(10.0))
    with pytest.raises(ValueError, match="exactly one relay"):
        single_relay_ser(FIG2_NETWORK, [[1, 0, 0], [0, 0, 0]], PowerLevel(10.0))


def test_importance_srs_calibrated_against_single_relay_ser():
    # SRS under importance sampling on the fig2 network, seeds 3001-3024,
    # which were not used in tuning the proposal.  The pooled mean over the
    # seeds read +0.87%, +0.96% and +1.02% of the quadrature value at 30, 40
    # and 50 dB, that is 1.8-1.9 pooled sigma, and the median std_err / ser
    # 0.023-0.024.  With the fade component at 1 / P the pooled mean read
    # +6.7%, +12.8% and +15.1% (one seed's outlier, 1.5-2.3 sigma, since it
    # widens the pooled sigma too) and the median std_err / ser 0.058-0.069:
    # it passes the first check and fails the second
    grid = (30.0, 40.0, 50.0)
    curves = [estimate_ser(SimulationPlan(FIG2_NETWORK, SrsSpec((0.0, 0.0, 0.0)), grid,
                                          65_536, seed, estimator="importance"))
              for seed in range(3001, 3025)]
    for i, p_db in enumerate(grid):
        exact = single_relay_ser(FIG2_NETWORK, np.eye(3), PowerLevel.from_db(p_db))
        ser = np.array([c.ser[i] for c in curves])
        err = np.array([c.std_err[i] for c in curves])
        pooled_sigma = math.sqrt(float(np.sum(err ** 2))) / len(curves)
        assert abs(ser.mean() - exact) <= 3.0 * pooled_sigma, (p_db, ser.mean(), exact)
        assert np.median(err / ser) <= 0.04, p_db
