import math

import numpy as np
import pytest

from relayquant import (
    FiniteCodebook,
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
    audit_snr_bound,
    run_audits,
    single_relay_ser,
    snr_upper_bounds,
)
from conftest import snr_per_vector


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


def test_run_audits_pass_at_every_seed():
    # every check certifies a program path against an exact result, so a
    # correct build passes it at any seed, even at the smallest draw count
    for seed in range(1, 51):
        checks = run_audits(samples=1000, seed=seed)
        failed = [c.name for c in checks if not c.passed]
        assert not failed, (seed, failed)
        assert [c.name for c in checks] == ["q-lower-bound", "gaussian-tail",
                                            "snr-upper-bound", "cophased-kkt"]


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
