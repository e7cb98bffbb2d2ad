"""The reference computations against independent computations."""

import math

import numpy as np
import pytest

import reference

FIG2 = dict(power_scalers=(1.0, 0.5, 2.0, 2.0), variance_f=(1.2, 0.8, 1.0),
            variance_g=(1.5, 1.7, 0.7))


def _srs_monte_carlo(power_scalers, variance_f, variance_g, p_db, n, seed):
    """E[Q(sqrt(2 max_r SNR_r))] by plain numpy sampling of |f|^2 and |g|^2."""
    gen = np.random.default_rng(seed)
    p = 10.0 ** (p_db / 10.0)
    a = gen.exponential(variance_f, (n, len(variance_f)))
    b = gen.exponential(variance_g, (n, len(variance_g)))
    rho = np.asarray(power_scalers[1:]) * p / (1.0 + a * power_scalers[0] * p)
    snr = (power_scalers[0] * p * a * b * rho / (1.0 + b * rho)).max(axis=1)
    from scipy.special import erfc
    q = 0.5 * erfc(np.sqrt(snr))
    return q.mean(), q.std(ddof=1) / math.sqrt(n)


@pytest.mark.parametrize("p_db", [0.0, 8.0, 16.0])
def test_srs_quadrature_matches_sampling(p_db):
    value = reference.srs_ser(p_db=p_db, **FIG2)
    mean, err = _srs_monte_carlo(p_db=p_db, n=400_000, seed=int(p_db) + 1, **FIG2)
    assert abs(value - mean) <= 4.5 * err


def test_relay_cdf_matches_empirical():
    gen = np.random.default_rng(5)
    p0, pr, vf, vg = 10.0, 20.0, 1.2, 0.7
    a = gen.exponential(vf, 200_000)
    b = gen.exponential(vg, 200_000)
    rho = pr / (1.0 + p0 * a)
    snr = p0 * a * b * rho / (1.0 + b * rho)
    for x in (0.1, 1.0, 5.0):
        empirical = float((snr <= x).mean())
        assert abs(reference._relay_cdf(x, p0, pr, vf, vg) - empirical) < 0.004


def test_srs_quadrature_decays_with_diversity_three():
    hi = [reference.srs_ser(p_db=p, **FIG2) for p in (40.0, 50.0)]
    assert 2.9 < math.log10(hi[0] / hi[1]) < 3.1


def test_exact_maximizer_beats_fine_grid_at_r2():
    gen = np.random.default_rng(3)
    f = (gen.standard_normal((6, 2)) + 1j * gen.standard_normal((6, 2))) / math.sqrt(2)
    g = (gen.standard_normal((6, 2)) + 1j * gen.standard_normal((6, 2))) / math.sqrt(2)
    axis = np.linspace(0.0, 1.0, 2001)
    for p_db in (5.0, 30.0):
        u, w, p0 = reference.cophased_coefficients(f, g, (1.0, 1.0, 1.0), p_db)
        for lo in ((0.0, 0.0), (0.5, 0.0), (1.0, 0.0)):
            exact = reference.exact_cophased_snr(u, w, p0, np.array(lo))
            m1 = np.clip(axis, lo[0], 1.0)[:, None]
            m2 = np.clip(axis, lo[1], 1.0)[None, :]
            for i in range(6):
                num = u[i, 0] * m1 + u[i, 1] * m2
                grid = (p0 * num * num / (1.0 + w[i, 0] * m1 ** 2 + w[i, 1] * m2 ** 2)).max()
                assert grid <= exact[i] * (1.0 + 1e-12)
                assert grid >= exact[i] * (1.0 - 1e-5)


def test_exact_maximizer_single_relay_is_closed_form():
    u = np.array([[0.7]])
    w = np.array([[2.0]])
    # p0 u^2 m^2 / (1 + w m^2) rises with m, so the maximum is at m = 1
    assert reference.exact_cophased_snr(u, w, 3.0, np.zeros(1))[0] == pytest.approx(
        3.0 * 0.49 / 3.0, rel=1e-15)


def test_min_hitting_set_small_cases():
    assert reference.min_hitting_set([{0, 1}, {1, 2}]) == 1
    assert reference.min_hitting_set([{0}, {1}, {2}]) == 3
    assert reference.min_hitting_set([{0, 1}, {2, 3}, {4}]) == 3
    assert reference.min_hitting_set([{0, 1, 2}, {2, 3, 4}, {4, 5, 0}]) == 2
    with pytest.raises(ValueError):
        reference.min_hitting_set([{0}, set()])
