import json

import numpy as np
import pytest

from relayquant import (
    ChannelState,
    CodebookError,
    ConstrainedSpec,
    FiniteCodebook,
    FullCsiSpec,
    NetworkConfig,
    PowerDependentSpec,
    PowerLevel,
    SrsSpec,
    UnitarySpec,
    apply_unitary,
    constrained_best_vector,
    make_srs,
    received_snr,
    resolve_codebook,
    same_codebook,
    spec_from_json,
    spec_to_json,
)
from relayquant.codebooks import constrained_best_snr, resolve_epsilon, to_finite
from relayquant.model import relay_gains
from relayquant.structure import is_omrs, is_srs
from tests.conftest import U1, U2


def test_make_srs_zero_phases():
    cb = make_srs(3, np.zeros(3))
    expected = FiniteCodebook(np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex))
    assert same_codebook(cb, expected)
    assert is_omrs(cb) and is_srs(cb)


def test_make_srs_with_phases():
    theta = (np.pi / 4, np.pi / 2, 2 * np.pi / 3)
    cb = make_srs(3, theta)
    expected = np.zeros((3, 3), dtype=complex)
    for r, t in enumerate(theta):
        expected[r, r] = np.exp(1j * t)
    assert np.allclose(cb.vectors, expected, atol=1e-15)
    assert is_omrs(cb)


def test_make_srs_length_mismatch():
    with pytest.raises(CodebookError):
        make_srs(3, [0.0, 0.0])


def test_apply_unitary_identity():
    cb = make_srs(3, np.zeros(3))
    out = apply_unitary(cb, np.eye(3))
    assert np.array_equal(out.vectors, cb.vectors)


def test_apply_unitary_srs_gives_rows():
    cb = make_srs(3, np.zeros(3))
    out = apply_unitary(cb, U1)
    # e_r U is the r-th row of U, and srs(0) lists e_1, e_2, e_3 in order
    assert np.allclose(out.vectors, U1, atol=1e-15)
    out2 = apply_unitary(cb, U2)
    assert np.allclose(out2.vectors, U2, atol=1e-15)


def test_apply_unitary_preserves_norms():
    gen = np.random.default_rng(2)
    cb = FiniteCodebook(gen.uniform(0, 0.5, (4, 3)) * np.exp(1j * gen.uniform(0, 7, (4, 3))))
    out = apply_unitary(cb, U2)
    assert np.allclose(np.linalg.norm(out.vectors, axis=1),
                       np.linalg.norm(cb.vectors, axis=1), atol=1e-10)


def test_apply_unitary_rejects_non_unitary():
    cb = make_srs(2, np.zeros(2))
    bad = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(CodebookError, match="not unitary"):
        apply_unitary(cb, bad)


def test_diagonal_unitary_maps_srs_to_srs():
    cb = make_srs(3, np.zeros(3))
    diag = np.diag(np.exp(1j * np.array([0.3, -1.2, 2.5])))
    out = apply_unitary(cb, diag)
    assert is_srs(out)
    assert is_omrs(out)


def test_constrained_epsilon_one_single_relay():
    config = NetworkConfig(1, (1.0, 1.0), (1.0,), (1.0,))
    h = ChannelState(np.array([0.8 - 0.6j]), np.array([0.1 + 0.9j]))
    vec, snr = constrained_best_vector(ConstrainedSpec(1.0, 1), h, config, PowerLevel(9.0))
    want = np.exp(-1j * np.angle(h.f[0] * h.g[0]))
    assert abs(vec.x[0] - want) < 1e-12
    assert snr == pytest.approx(received_snr(vec, h, config, PowerLevel(9.0)), rel=1e-10)


def test_constrained_beats_rejection_sampling():
    gen = np.random.default_rng(31)
    config = NetworkConfig(2, (1.0, 1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    p = PowerLevel(50.0)
    spec = ConstrainedSpec(0.25, 1)
    for _ in range(3):
        f = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        g = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        h = ChannelState(f, g)
        _, best = constrained_best_vector(spec, h, config, p)
        mags = gen.uniform(0, 1, (10_000, 2))
        mags[:, 0] = np.sqrt(0.25 + (1 - 0.25) * gen.uniform(0, 1, 10_000))
        phases = np.exp(1j * gen.uniform(0, 2 * np.pi, (10_000, 2)))
        sampled = 0.0
        for row in mags * phases:
            sampled = max(sampled, received_snr(row, h, config, p))
        assert best >= sampled * (1 - 1e-9)


def test_full_csi_dominates_srs_vectors():
    gen = np.random.default_rng(37)
    config = NetworkConfig(2, (1.0, 1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    p = PowerLevel(100.0)
    for _ in range(20):
        f = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        g = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        h = ChannelState(f, g)
        _, best = constrained_best_vector(FullCsiSpec(), h, config, p)
        for srs_vec in make_srs(2, np.zeros(2)).vectors:
            assert best >= received_snr(srs_vec, h, config, p) * (1 - 1e-12)


def test_constraint_relaxation_never_hurts():
    gen = np.random.default_rng(41)
    config = NetworkConfig(2, (1.0, 1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    p = PowerLevel(200.0)
    for _ in range(10):
        f = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        g = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        h = ChannelState(f, g)
        snrs = []
        for eps in (1.0, 0.25, 0.0625, 0.0):
            spec = FullCsiSpec() if eps == 0.0 else ConstrainedSpec(eps, 1)
            snrs.append(constrained_best_vector(spec, h, config, p)[1])
        for tight, loose in zip(snrs, snrs[1:]):
            assert loose >= tight * (1 - 1e-9)


def test_cophasing_beats_random_phases():
    gen = np.random.default_rng(43)
    config = NetworkConfig(3, (1.0,) * 4, (1.0,) * 3, (1.0,) * 3)
    p = PowerLevel(30.0)
    for _ in range(20):
        f = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        g = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        h = ChannelState(f, g)
        mags = gen.uniform(0, 1, 3)
        cophased = mags * np.exp(-1j * np.angle(f * g))
        reference = received_snr(cophased, h, config, p)
        for _ in range(30):
            scrambled = mags * np.exp(1j * gen.uniform(0, 2 * np.pi, 3))
            assert received_snr(scrambled, h, config, p) <= reference * (1 + 1e-12)


def test_resolve_codebook_srs_power_independent():
    ev_a = resolve_codebook(SrsSpec((0.0, 1.0)), PowerLevel(2.0))
    ev_b = resolve_codebook(SrsSpec((0.0, 1.0)), PowerLevel(2000.0))
    assert np.array_equal(ev_a.codebook.vectors, ev_b.codebook.vectors)


def test_resolve_power_dependent_epsilon():
    spec = PowerDependentSpec(1)
    assert resolve_epsilon(spec, PowerLevel(np.e ** 2)) == pytest.approx(0.5, rel=1e-12)
    assert resolve_epsilon(spec, PowerLevel(np.e)) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(CodebookError, match="P >= e"):
        resolve_epsilon(spec, PowerLevel(2.0))


def test_finite_evaluator_matches_brute_force(cb_c3, asym_network):
    gen = np.random.default_rng(47)
    p = PowerLevel(40.0)
    ev = resolve_codebook(cb_c3, p)
    for _ in range(50):
        f = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        g = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        h = ChannelState(f, g)
        idx, vec = ev.choose(h, asym_network, p)
        snrs = [received_snr(v, h, asym_network, p) for v in cb_c3.vectors]
        assert idx == int(np.argmax(snrs))


def test_finite_codebook_rejects_overweight_vector():
    with pytest.raises(CodebookError):
        FiniteCodebook(np.array([[1.2, 0.0]], dtype=complex))


def test_spec_json_round_trip():
    specs = [
        make_srs(2, (0.1, 0.2)),
        SrsSpec((0.0, 0.5)),
        UnitarySpec(SrsSpec((0.0, 0.0, 0.0)), U1),
        ConstrainedSpec(0.25, 2),
        FullCsiSpec(),
        PowerDependentSpec(1),
    ]
    for spec in specs:
        obj = spec_to_json(spec)
        back = spec_from_json(json.loads(json.dumps(obj)))
        assert type(back) is type(spec)
        if isinstance(spec, FiniteCodebook):
            assert np.allclose(back.vectors, spec.vectors)
        if isinstance(spec, UnitarySpec):
            assert np.allclose(back.matrix, spec.matrix)


def test_spec_json_errors():
    with pytest.raises(CodebookError, match="unknown codebook type"):
        spec_from_json({"type": "mystery"})
    with pytest.raises(CodebookError, match="length mismatch"):
        spec_from_json({"vectors": [[[1, 0]], [[1, 0], [0, 0]]]})
    with pytest.raises(CodebookError):
        spec_from_json({"type": "constrained", "epsilon": 2.0, "pinned_relay": 1})


def test_to_finite_rejects_continuous():
    with pytest.raises(CodebookError):
        to_finite(FullCsiSpec())


def test_same_codebook_is_phase_blind():
    a = make_srs(3, np.zeros(3))
    b = make_srs(3, (1.0, 2.0, 3.0))
    assert same_codebook(a, b)
    assert not same_codebook(a, FiniteCodebook(np.eye(2, dtype=complex)))


def _cophased_terms(f, g, config, power):
    """(u, w, p0) of the co-phased SNR p0 (u.m)^2 / (1 + w.(m*m))."""
    rho = relay_gains(f, config, power)
    return np.abs(f * g) * np.sqrt(rho), np.abs(g) ** 2 * rho, config.power_scalers[0] * power.linear


def test_exact_maximizer_beats_fine_grid_within_resolution():
    config = NetworkConfig(2, (1.0, 0.5, 2.0), (1.2, 0.8), (1.5, 0.7))
    gen = np.random.default_rng(53)
    points = 301
    step = 1.0 / (points - 1)
    for p_db in (0.0, 15.0, 30.0, 45.0):
        power = PowerLevel.from_db(p_db)
        for eps in (0.0, 0.0625, 0.25, 1.0):
            f = gen.standard_normal((30, 2)) + 1j * gen.standard_normal((30, 2))
            g = gen.standard_normal((30, 2)) + 1j * gen.standard_normal((30, 2))
            mag, val = constrained_best_snr(f, g, config, power, eps, 1)
            u, w, p0 = _cophased_terms(f, g, config, power)
            lo = np.sqrt(eps)
            assert np.all(mag[:, 0] >= lo) and np.all((mag >= 0.0) & (mag <= 1.0))
            attained = p0 * (u * mag).sum(axis=1) ** 2 / (1.0 + (w * mag * mag).sum(axis=1))
            assert np.allclose(val, attained, rtol=1e-12, atol=0.0)

            m1, m2 = np.meshgrid(np.linspace(lo, 1.0, points), np.linspace(0.0, 1.0, points),
                                 indexing="ij")
            num = u[:, 0, None, None] * m1 + u[:, 1, None, None] * m2
            den = 1.0 + w[:, 0, None, None] * m1 ** 2 + w[:, 1, None, None] * m2 ** 2
            grid_max = (p0 * num ** 2 / den).reshape(len(f), -1).max(axis=1)
            assert np.all(val >= grid_max * (1 - 1e-12))
            # |dF/dm_r| <= 2 p0 (sum u)(u_r + (sum u) w_r) on the box, and every
            # point of the box lies within step/2 of a grid point in each axis
            total = u.sum(axis=1, keepdims=True)
            lipschitz = (2.0 * p0 * total * (u + total * w)).sum(axis=1)
            assert np.all(val <= grid_max + 0.5 * step * lipschitz)


def test_exact_maximizer_edge_cases():
    gen = np.random.default_rng(59)
    power = PowerLevel.from_db(20.0)
    config = NetworkConfig(2, (1.0, 1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    f = gen.standard_normal((500, 2)) + 1j * gen.standard_normal((500, 2))
    g = gen.standard_normal((500, 2)) + 1j * gen.standard_normal((500, 2))

    # epsilon 0 on a pinned relay is the unconstrained family
    pinned = constrained_best_snr(f, g, config, power, 0.0, 1)
    free = constrained_best_snr(f, g, config, power, 0.0, None)
    assert np.array_equal(pinned[0], free[0]) and np.array_equal(pinned[1], free[1])

    # epsilon 1 pins the relay at full power; the other relay is optimized
    # in closed form: m = clip(D0 / N0 * u / w, 0, 1) with the pinned
    # relay's terms as N0 and D0 - 1
    mag, val = constrained_best_snr(f, g, config, power, 1.0, 2)
    assert np.all(mag[:, 1] == 1.0)
    u, w, p0 = _cophased_terms(f, g, config, power)
    m = np.clip((1.0 + w[:, 1]) / u[:, 1] * u[:, 0] / w[:, 0], 0.0, 1.0)
    want = p0 * (u[:, 1] + u[:, 0] * m) ** 2 / (1.0 + w[:, 1] + w[:, 0] * m * m)
    assert np.allclose(mag[:, 0], m, rtol=1e-12, atol=1e-15)
    assert np.allclose(val, want, rtol=1e-12, atol=0.0)

    # a relay that hears nothing (f_r = 0) stays at zero and leaves the
    # other relays' problem unchanged
    three = NetworkConfig(3, (1.0,) * 4, (1.0,) * 3, (1.0,) * 3)
    dead = np.concatenate([f, np.zeros((500, 1))], axis=1)
    live = np.concatenate([g, g[:, :1]], axis=1)
    mag, val = constrained_best_snr(dead, live, three, power, 0.25, 1)
    mag2, val2 = constrained_best_snr(f, g, config, power, 0.25, 1)
    assert np.all(mag[:, 2] == 0.0)
    assert np.allclose(mag[:, :2], mag2, rtol=1e-12, atol=1e-15)
    assert np.allclose(val, val2, rtol=1e-12, atol=0.0)

    # one relay: the SNR rises with the magnitude, so full power is optimal
    single = NetworkConfig(1, (1.0, 1.0), (1.0,), (1.0,))
    for eps, pin in ((0.0, None), (0.25, 1)):
        mag, val = constrained_best_snr(f[:, :1], g[:, :1], single, power, eps, pin)
        assert np.all(mag == 1.0)
        u, w, p0 = _cophased_terms(f[:, :1], g[:, :1], single, power)
        assert np.allclose(val, p0 * u[:, 0] ** 2 / (1.0 + w[:, 0]), rtol=1e-12, atol=0.0)
