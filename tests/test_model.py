import math

import numpy as np
import pytest

from relayquant import (
    CodebookError,
    FiniteCodebook,
    NetworkConfig,
    PowerLevel,
    make_srs,
    resolve_codebook,
)
from relayquant.model import (ZERO_TOL, canonical_rows, channel_products, geometry_at_power,
                              phase_classes, relay_gains, sample_channels, snr_geometry,
                              snr_per_vector, supports)
from relayquant.rng import Lane, stream
from tests.conftest import snr_reference


def test_config_rejects_zero_variance():
    with pytest.raises(ValueError):
        NetworkConfig(2, (1.0, 1.0, 1.0), (0.0, 1.0), (1.0, 1.0))


def test_config_rejects_bad_lengths():
    with pytest.raises(ValueError):
        NetworkConfig(2, (1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        NetworkConfig(0, (1.0,), (), ())


def test_power_level_db_round_trip():
    p = PowerLevel.from_db(23.0)
    assert p.linear == pytest.approx(10 ** 2.3)
    assert 10.0 * math.log10(p.linear) == pytest.approx(23.0)
    with pytest.raises(ValueError):
        PowerLevel(0.0)


def test_sample_channel_second_moment():
    config = NetworkConfig(2, (1.0, 1.0, 1.0), (1.2, 0.8), (1.5, 0.7))
    f, g = sample_channels(config, stream(7, 0, 0), 100_000)
    # |f_r|^2 is exponential with mean var_f, so its sample-mean standard
    # error is var_f / sqrt(n); check within 5 standard errors.
    n = f.shape[0]
    for r, var in enumerate(config.variance_f):
        assert abs(np.mean(np.abs(f[:, r]) ** 2) - var) < 5 * var / np.sqrt(n)
    for r, var in enumerate(config.variance_g):
        assert abs(np.mean(np.abs(g[:, r]) ** 2) - var) < 5 * var / np.sqrt(n)


def test_sample_channel_deterministic_for_same_counter():
    config = NetworkConfig(3, (1.0,) * 4, (1.0,) * 3, (1.0,) * 3)
    a = sample_channels(config, stream(42, 5, 9), 1)
    b = sample_channels(config, stream(42, 5, 9), 1)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = sample_channels(config, stream(42, 5, 10), 1)
    assert not np.array_equal(a[0], c[0])


def test_stream_rejects_seed_outside_key_range():
    # 2**128 and -1 would otherwise alias seeds 0 and 2**128 - 1
    top = stream(2**128 - 1, 0, 0).random()
    assert top != stream(0, 0, 0).random()
    for seed in (2**128, -1):
        with pytest.raises(ValueError, match="seed must be an integer"):
            stream(seed, 0, 0)


@pytest.mark.parametrize("value", [-1, 2**64, True])
def test_stream_rejects_lane_and_block_outside_counter_range(value):
    # -1 and 2**64 would otherwise alias 2**64 - 1 and 0; True is not an index
    stream(5, 2**64 - 1, 2**64 - 1)
    with pytest.raises(ValueError, match=r"lane must be an integer in \[0, 2\*\*64\)"):
        stream(5, value, 0)
    with pytest.raises(ValueError, match=r"block must be an integer in \[0, 2\*\*64\)"):
        stream(5, 0, value)


def test_stream_lanes_keep_their_numbers():
    # every curve and audit statistic is drawn at these lane numbers
    assert {lane.name: int(lane) for lane in Lane} == {
        "CHUNKS": 0, "RATIO_CDF": 1, "RATIO_PDF": 2, "SNR_BOUND": 3, "KKT": 4}
    assert stream(9, Lane.KKT, 2).random() == stream(9, 4, 2).random()


def test_sample_channels_matches_componentwise_assembly():
    # the complex view of the interleaved normals must reproduce, bit for
    # bit, gains assembled as re + 1j * im from the same stream
    config = NetworkConfig(3, (1.0,) * 4, (1.2, 0.8, 1.0), (1.5, 1.7, 0.7))
    f, g = sample_channels(config, stream(2026, 1, 3), 50_000)
    gen = stream(2026, 1, 3)
    zf = gen.standard_normal((50_000, 3, 2))
    zg = gen.standard_normal((50_000, 3, 2))
    ref_f = (zf[..., 0] + 1j * zf[..., 1]) * np.sqrt(np.array(config.variance_f) / 2.0)
    ref_g = (zg[..., 0] + 1j * zg[..., 1]) * np.sqrt(np.array(config.variance_g) / 2.0)
    assert np.array_equal(f.view(np.uint64), ref_f.view(np.uint64))
    assert np.array_equal(g.view(np.uint64), ref_g.view(np.uint64))


def test_relay_gain_zero_channel():
    config = NetworkConfig(2, (1.0, 3.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    f = np.array([0.0, 1.0 + 0j])
    assert relay_gains(f, config, PowerLevel(2.0))[0] == pytest.approx(3.0 * 2.0)


def test_relay_gain_hand_value():
    # p_r = p_0 = P = 1 and |f_r|^2 = 1 gives 1 / (1 + 1) = 1/2.
    config = NetworkConfig(1, (1.0, 1.0), (1.0,), (1.0,))
    assert relay_gains(np.array([1.0 + 0j]), config, PowerLevel(1.0))[0] == pytest.approx(0.5)


def test_relay_gain_bounded_and_monotone():
    config = NetworkConfig(2, (1.0, 0.5, 2.0), (1.2, 0.8), (1.5, 0.7))
    gen = np.random.default_rng(3)
    for _ in range(200):
        f = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        p = PowerLevel(float(gen.uniform(0.01, 1e4)))
        rho = relay_gains(f, config, p)
        assert np.all(rho > 0)
        assert np.all(rho <= np.array(config.power_scalers[1:]) * p.linear + 1e-12)
        # nonincreasing in |f_r|, nondecreasing in P
        rho_bigger_f = relay_gains(2.0 * f, config, p)
        assert np.all(rho_bigger_f <= rho + 1e-15)
        rho_bigger_p = relay_gains(f, config, PowerLevel(2.0 * p.linear))
        assert np.all(rho_bigger_p >= rho - 1e-15)



def test_sample_channels_into_buffer_draws_the_same_gains():
    config = NetworkConfig(3, (1.0,) * 4, (1.2, 0.8, 1.0), (1.5, 1.7, 0.7))
    fresh = sample_channels(config, stream(5, 0, 1), 1000)
    buf = np.full((2, 1000, 3), np.nan, dtype=complex)
    kept = sample_channels(config, stream(5, 0, 1), 1000, buf)
    for a, b in zip(fresh, kept):
        assert a.tobytes() == b.tobytes()
    assert np.shares_memory(kept[0], buf) and np.shares_memory(kept[1], buf)


def test_two_step_geometry_equals_closed_form():
    # channel_products once, geometry_at_power per power: the same bits as
    # rho, a = (f g) sqrt(rho) and b = |g|^2 rho formed in one go
    config = NetworkConfig(4, (1.0, 0.5, 2.0, 2.0, 0.7), (1.2, 0.8, 1.0, 0.4),
                           (1.5, 1.7, 0.7, 1.1))
    f, g = sample_channels(config, stream(11, 2, 0), 777)
    products = channel_products(f, g)
    for p_db in (-3.0, 0.0, 17.0, 50.0):
        power = PowerLevel.from_db(p_db)
        rho = relay_gains(f, config, power).T
        expect = (rho, (f * g).T * np.sqrt(rho), (g.real * g.real + g.imag * g.imag).T * rho)
        for got in (snr_geometry(f, g, config, power), geometry_at_power(products, config, power)):
            for x, y in zip(got, expect):
                assert x.shape == (4, 777) and x.flags.c_contiguous
                assert x.tobytes() == np.ascontiguousarray(y).tobytes(), p_db
    # per-state power, as the oracles pass it
    power = np.linspace(0.5, 300.0, 777)
    rho = relay_gains(f, config, power)
    assert snr_geometry(f, g, config, power)[0].tobytes() == np.ascontiguousarray(rho.T).tobytes()


def test_snr_per_vector_is_k_major():
    config = NetworkConfig(3, (1.0,) * 4, (1.0,) * 3, (1.0,) * 3)
    f, g = sample_channels(config, stream(3, 0, 0), 64)
    vectors = canonical_rows(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex))
    snr = snr_per_vector(vectors, f, g, config, PowerLevel(10.0))
    assert snr.shape == (64, 3) and snr.flags.f_contiguous
    for k in range(3):
        for i in (0, 17, 63):
            want = snr_reference(vectors[k], f[i], g[i], config.power_scalers, 10.0)
            assert snr[i, k] == pytest.approx(want, rel=1e-12)


def test_received_snr_zero_vector():
    config = NetworkConfig(2, (1.0, 1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    f, g = np.array([[1.0 + 1j, 0.5j]]), np.array([[0.3, 2.0 + 0j]])
    zero = np.zeros((1, 2), dtype=complex)
    assert snr_per_vector(zero, f, g, config, PowerLevel(10.0))[0, 0] == 0.0


def test_received_snr_single_relay_closed_form():
    config = NetworkConfig(1, (2.0, 3.0), (1.0,), (1.0,))
    f, g = np.array([[0.7 + 0.2j]]), np.array([[-0.3 + 1.1j]])
    p = PowerLevel(5.0)
    f2 = abs(f[0, 0]) ** 2
    g2 = abs(g[0, 0]) ** 2
    p0, p1 = 2.0 * 5.0, 3.0 * 5.0
    expected = f2 * g2 * p0 * p1 / (1.0 + f2 * p0 + g2 * p1)
    got = snr_per_vector(np.array([[1.0 + 0j]]), f, g, config, p)[0, 0]
    assert got == pytest.approx(expected, rel=1e-12)


def test_received_snr_matches_independent_reference():
    gen = np.random.default_rng(11)
    scalers = (1.0, 0.5, 2.0, 2.0)
    config = NetworkConfig(3, scalers, (1.2, 0.8, 1.0), (1.5, 1.7, 0.7))
    for _ in range(300):
        f = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        g = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        mags = gen.uniform(0, 1, 3)
        x = mags * np.exp(1j * gen.uniform(0, 2 * np.pi, 3))
        p = float(gen.uniform(0.1, 1e4))
        got = snr_per_vector(x[None], f[None], g[None], config, PowerLevel(p))[0, 0]
        want = snr_reference(x, f, g, scalers, p)
        assert got == pytest.approx(want, rel=1e-10)


def test_phase_invariance_of_snr():
    gen = np.random.default_rng(5)
    config = NetworkConfig(3, (1.0,) * 4, (1.0,) * 3, (1.0,) * 3)
    for _ in range(100):
        f = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        g = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        x = gen.uniform(0, 1, 3) * np.exp(1j * gen.uniform(0, 2 * np.pi, 3))
        theta = float(gen.uniform(0, 2 * np.pi))
        p = PowerLevel(float(gen.uniform(0.1, 1e3)))
        a, b = snr_per_vector(np.stack([x, np.exp(1j * theta) * x]), f[None], g[None],
                              config, p)[0]
        assert b == pytest.approx(a, rel=1e-12)
        assert a >= 0.0


def test_encoder_singleton_and_empty():
    config = NetworkConfig(2, (1.0, 1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    f, g = np.array([[1.0 + 0j, 1j]]), np.array([[1j, 0.2 + 0j]])
    x = np.array([1.0, 0j])
    p = PowerLevel(1.0)
    best = resolve_codebook(FiniteCodebook(x), p).best_snr(f, g, config, p)
    assert best[0] == pytest.approx(snr_reference(x, f[0], g[0], config.power_scalers, 1.0),
                                    rel=1e-12)
    with pytest.raises(CodebookError, match="non-empty"):
        FiniteCodebook(np.empty((0, 2), dtype=complex))


def test_encoder_selects_only_active_relay():
    config = NetworkConfig(3, (1.0,) * 4, (1.0,) * 3, (1.0,) * 3)
    srs = make_srs(3, np.zeros(3))
    p = PowerLevel(4.0)
    # only relay 2 has any signal path
    f, g = np.array([[0, 1.3 + 0.2j, 0]]), np.array([[0, -0.4 + 0.9j, 0]])
    snrs = snr_per_vector(srs.vectors, f, g, config, p)[0]
    assert snrs[0] == snrs[2] == 0.0 and snrs[1] > 0
    assert resolve_codebook(srs, p).best_snr(f, g, config, p)[0] == snrs[1]


def test_encoder_dominates_every_entry():
    gen = np.random.default_rng(17)
    config = NetworkConfig(3, (1.0, 0.5, 2.0, 2.0), (1.2, 0.8, 1.0), (1.5, 1.7, 0.7))
    for _ in range(50):
        mats = gen.uniform(0, 1, (8, 3)) * np.exp(1j * gen.uniform(0, 2 * np.pi, (8, 3)))
        f = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        g = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        p = PowerLevel(float(gen.uniform(0.5, 500.0)))
        best = resolve_codebook(FiniteCodebook(mats), p).best_snr(f[None], g[None], config, p)[0]
        entries = [snr_reference(x, f, g, config.power_scalers, p.linear) for x in mats]
        assert best == pytest.approx(max(entries), rel=1e-12)


def test_encoder_phase_class_invariance():
    gen = np.random.default_rng(23)
    config = NetworkConfig(2, (1.0, 1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    mats = gen.uniform(0, 1, (4, 2)) * np.exp(1j * gen.uniform(0, 2 * np.pi, (4, 2)))
    f = gen.standard_normal(2) + 1j * gen.standard_normal(2)
    g = gen.standard_normal(2) + 1j * gen.standard_normal(2)
    p = PowerLevel(25.0)
    base = snr_per_vector(canonical_rows(mats), f[None], g[None], config, p)[0]
    for k in range(4):
        rotated = mats.copy()
        rotated[k] *= np.exp(1j * 1.234)
        rot = snr_per_vector(canonical_rows(rotated), f[None], g[None], config, p)[0]
        # canonical evaluation makes the rotated entry's value agree to the ulp
        assert rot[k] == pytest.approx(base[k], rel=1e-12)


def test_canonical_rows_snaps_unit_peaks():
    rows = np.array([
        [np.exp(1j * 2 * np.pi / 3), 0, 0],
        [0, 1j, 0],
        [0, 0, np.exp(1j * np.pi / 4)],
    ])
    canon = canonical_rows(rows)
    assert np.array_equal(canon, np.eye(3, dtype=complex))


def test_canonical_rows_zero_every_entry_off_the_support():
    above = np.nextafter(ZERO_TOL, 1.0)
    rows = np.array([
        [ZERO_TOL * 1j, 0.5j, above],
        [-above, ZERO_TOL / 3, 1.0],
        [ZERO_TOL, -ZERO_TOL, 0.0],
    ])
    assert np.array_equal(supports(rows), [[False, True, True], [True, False, True],
                                           [False, False, False]])
    canon = canonical_rows(rows)
    assert np.array_equal(canon != 0, supports(rows))
    # kept entries only turn by their row's phase
    assert np.allclose(np.abs(canon), np.where(supports(rows), np.abs(rows), 0.0),
                       rtol=1e-15, atol=0.0)
    assert canon[0, 1] == 0.5 and canon[1, 2] == 1.0


def test_phase_classes_keep_rotated_copies_with_tied_peaks_together():
    # the pivot is the first entry within ZERO_TOL of the peak, so rounding
    # after a rotation cannot move it between two tied magnitudes
    x = np.array([1.0, np.exp(0.3j)]) / np.sqrt(2.0)
    for theta in np.linspace(0.0, 2.0 * np.pi, 1000):
        assert phase_classes(np.array([x, np.exp(1j * theta) * x])) == [0], theta
    gen = np.random.default_rng(0)
    for _ in range(2000):
        r = int(gen.integers(2, 6))
        v = gen.standard_normal(r) + 1j * gen.standard_normal(r)
        first, second = np.argsort(np.abs(v))[::-1][:2]
        v[second] *= np.abs(v[first]) / np.abs(v[second])  # the two largest tie
        copy = np.exp(2j * np.pi * gen.uniform()) * v
        assert phase_classes(np.array([v, copy])) == [0], v
