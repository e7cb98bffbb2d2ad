import json

import numpy as np
import pytest

from relayquant import (
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
    make_srs,
    resolve_codebook,
    spec_from_json,
    spec_to_json,
)
from relayquant.cli import main
from relayquant.codebooks import constrained_best_snr, to_finite
from relayquant.model import ChunkBuffers, relay_gains, snr_geometry, snr_per_vector
from relayquant.structure import is_omrs, is_srs
from tests.conftest import U1, U2, snr_reference


def test_make_srs_zero_phases():
    cb = make_srs(3, np.zeros(3))
    assert np.array_equal(cb.vectors, np.eye(3, dtype=complex))
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


def test_unitary_check_rejects_non_finite_matrix(tmp_path, capsys):
    # a NaN entry makes U U^H - I NaN, which must fail the tolerance test
    pairs = [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(CodebookError, match="not unitary"):
        UnitarySpec(SrsSpec((0.0, 0.0)), bad)
    with pytest.raises(CodebookError, match="not unitary"):
        apply_unitary(make_srs(2, np.zeros(2)), bad)
    spec = tmp_path / "nan.json"
    spec.write_text(json.dumps({"type": "unitary", "base": {"type": "srs", "theta": [0, 0]},
                                "matrix": pairs}), encoding="utf-8")
    assert main(["analyze", "-i", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "not unitary" in err and "must be finite" not in err and "Traceback" not in err


def test_unitary_check_rejects_infinite_matrix_before_multiplying(tmp_path, capsys):
    # U U^H of an infinite entry would warn "invalid value encountered in
    # matmul", which the test settings turn into an error; the entries are
    # checked first
    bad = np.array([[np.inf, 0.0], [0.0, 1.0]])
    for build in (lambda: UnitarySpec(SrsSpec((0.0, 0.0)), bad),
                  lambda: apply_unitary(make_srs(2, np.zeros(2)), bad)):
        with pytest.raises(CodebookError, match="not unitary: it has a non-finite entry"):
            build()
    spec = tmp_path / "inf.json"
    spec.write_text(json.dumps({"type": "unitary", "base": {"type": "srs", "theta": [0, 0]},
                                "matrix": [[[float("inf"), 0], [0, 0]], [[0, 0], [1, 0]]]}),
                    encoding="utf-8")
    assert main(["analyze", "-i", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {spec}: matrix is not unitary: it has a non-finite entry\n"


def test_diagonal_unitary_maps_srs_to_srs():
    cb = make_srs(3, np.zeros(3))
    diag = np.diag(np.exp(1j * np.array([0.3, -1.2, 2.5])))
    out = apply_unitary(cb, diag)
    assert is_srs(out)
    assert is_omrs(out)


def test_constrained_epsilon_one_single_relay():
    config = NetworkConfig(1, (1.0, 1.0), (1.0,), (1.0,))
    f, g = np.array([[0.8 - 0.6j]]), np.array([[0.1 + 0.9j]])
    p = PowerLevel(9.0)
    mag, snr = constrained_best_snr(f, g, config, p, 1.0, 1)
    # epsilon = 1 pins the one relay at full magnitude; co-phased, that is
    # the vector exp(-j arg(f g))
    assert abs(mag[0, 0] - 1.0) < 1e-12
    vec = mag[0] * np.exp(-1j * np.angle(f[0] * g[0]))
    assert snr[0] == pytest.approx(snr_per_vector(vec[None], f, g, config, p)[0, 0], rel=1e-10)


def test_constrained_beats_rejection_sampling():
    gen = np.random.default_rng(31)
    config = NetworkConfig(2, (1.0, 1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    p = PowerLevel(50.0)
    evaluator = resolve_codebook(ConstrainedSpec(0.25, 1), p)
    for _ in range(3):
        f = gen.standard_normal((1, 2)) + 1j * gen.standard_normal((1, 2))
        g = gen.standard_normal((1, 2)) + 1j * gen.standard_normal((1, 2))
        best = evaluator.best_snr(f, g, config, p)[0]
        mags = gen.uniform(0, 1, (10_000, 2))
        mags[:, 0] = np.sqrt(0.25 + (1 - 0.25) * gen.uniform(0, 1, 10_000))
        phases = np.exp(1j * gen.uniform(0, 2 * np.pi, (10_000, 2)))
        sampled = snr_per_vector(mags * phases, f, g, config, p).max()
        assert best >= sampled * (1 - 1e-9)


def _states(gen, n, r):
    """n channel states (f, g) of shape (n, R), drawn in the order of n
    successive draws of re f, im f, re g, im g."""
    z = gen.standard_normal((n, 4, r))
    return z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]


def test_full_csi_dominates_srs_vectors():
    gen = np.random.default_rng(37)
    config = NetworkConfig(2, (1.0, 1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    p = PowerLevel(100.0)
    f, g = _states(gen, 20, 2)
    best = resolve_codebook(FullCsiSpec(), p).best_snr(f, g, config, p)
    srs = snr_per_vector(make_srs(2, np.zeros(2)).vectors, f, g, config, p)
    assert np.all(best[:, None] >= srs * (1 - 1e-12))


def test_constraint_relaxation_never_hurts():
    gen = np.random.default_rng(41)
    config = NetworkConfig(2, (1.0, 1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    p = PowerLevel(200.0)
    f, g = _states(gen, 10, 2)
    snrs = []
    for eps in (1.0, 0.25, 0.0625, 0.0):
        spec = FullCsiSpec() if eps == 0.0 else ConstrainedSpec(eps, 1)
        snrs.append(resolve_codebook(spec, p).best_snr(f, g, config, p))
    for tight, loose in zip(snrs, snrs[1:]):
        assert np.all(loose >= tight * (1 - 1e-9))


def test_cophasing_beats_random_phases():
    gen = np.random.default_rng(43)
    config = NetworkConfig(3, (1.0,) * 4, (1.0,) * 3, (1.0,) * 3)
    p = PowerLevel(30.0)
    for _ in range(20):
        f = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        g = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        mags = gen.uniform(0, 1, 3)
        cophased = mags * np.exp(-1j * np.angle(f * g))
        scrambled = mags * np.exp(1j * gen.uniform(0, 2 * np.pi, (30, 3)))
        reference, *others = snr_per_vector(np.vstack([cophased, scrambled]), f[None], g[None],
                                            config, p)[0]
        assert np.all(np.array(others) <= reference * (1 + 1e-12))


def test_resolve_codebook_srs_power_independent():
    ev_a = resolve_codebook(SrsSpec((0.0, 1.0)), PowerLevel(2.0))
    ev_b = resolve_codebook(SrsSpec((0.0, 1.0)), PowerLevel(2000.0))
    assert np.array_equal(ev_a.codebook.vectors, ev_b.codebook.vectors)


def test_resolve_power_dependent_epsilon():
    spec = PowerDependentSpec(1)
    assert resolve_codebook(spec, PowerLevel(np.e ** 2)).epsilon == pytest.approx(0.5, rel=1e-12)
    assert resolve_codebook(spec, PowerLevel(np.e)).epsilon == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(CodebookError, match="P >= e"):
        resolve_codebook(spec, PowerLevel(2.0))


def test_finite_evaluator_matches_brute_force(cb_c3, asym_network):
    gen = np.random.default_rng(47)
    p = PowerLevel(40.0)
    ev = resolve_codebook(cb_c3, p)
    for _ in range(50):
        f = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        g = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        best = ev.best_snr(f[None], g[None], asym_network, p)[0]
        snrs = [snr_reference(v, f, g, asym_network.power_scalers, p.linear)
                for v in cb_c3.vectors]
        assert best == pytest.approx(max(snrs), rel=1e-12)


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


def _allocating_maximizer(f, g, config, power, epsilon, pinned_relay):
    """The exact maximizer as it ran on fresh arrays, keeping each segment's
    winning magnitudes; constrained_best_snr must match it bit for bit."""
    n, r_count = f.shape
    lo = np.zeros(r_count)
    if pinned_relay is not None:
        lo[pinned_relay - 1] = np.sqrt(epsilon)
    p0 = config.power_scalers[0] * power.linear
    _, a, w = snr_geometry(f, g, config, power)
    u = np.abs(a)
    lo = lo[:, None]
    active = u > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(active, u / w, 0.0)
        leave = np.where(active, w / u, np.inf)
        enter = np.where(active, lo * leave, np.inf)
    edges = np.sort(np.concatenate([enter[lo[:, 0] > 0.0], leave]), axis=0)
    lefts = np.concatenate([np.zeros((1, n)), edges])
    rights = np.concatenate([edges, np.full((1, n), np.inf)])
    best_mag = np.empty((r_count, n))
    best_val = np.full(n, -np.inf)
    for left, right in zip(lefts, rights):
        fixed = np.where(right <= enter, lo, left >= leave)
        num0 = (u * fixed).sum(axis=0)
        den0 = 1.0 + (w * fixed * fixed).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.clip(den0 / num0, left, right)
            mag = np.where(c >= leave, 1.0, np.where(c <= enter, lo, c * slope))
        np.clip(mag, lo, 1.0, out=mag)
        num = (u * mag).sum(axis=0)
        val = p0 * num * num / (1.0 + (w * mag * mag).sum(axis=0))
        better = val > best_val
        np.copyto(best_val, val, where=better)
        np.copyto(best_mag, mag, where=better)
    return best_mag.T, best_val


def test_arena_maximizer_matches_fresh_arrays_bit_for_bit():
    # one arena per relay count serves every call, with n varying below its
    # capacity; every relay and none pinned, epsilon 0 (where the first
    # segment fixes nothing, num = 0) to 1, 0-50 dB; relays with f or g = 0
    # (a dead relay), and a state whose relays are all dead
    gen = np.random.default_rng(67)
    for r_count in range(1, 6):
        config = NetworkConfig(r_count, tuple(gen.uniform(0.3, 2.0, r_count + 1)),
                               tuple(gen.uniform(0.5, 1.5, r_count)),
                               tuple(gen.uniform(0.5, 1.5, r_count)))
        arena = ChunkBuffers(300)
        for pinned in (None, *range(1, r_count + 1)):
            for eps in (0.0, 1 / 16, 1 / 4, 1.0):
                for p_db in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0):
                    power = PowerLevel.from_db(p_db)
                    n = int(gen.integers(1, 301))
                    f, g = _states(gen, n, r_count)
                    f[gen.random((n, r_count)) < 0.1] = 0.0
                    g[gen.random((n, r_count)) < 0.1] = 0.0
                    f[0] = 0.0
                    want = _allocating_maximizer(f, g, config, power, eps, pinned)
                    case = (r_count, pinned, eps, p_db)
                    for buffers in (None, arena):
                        mag, val = constrained_best_snr(f, g, config, power, eps, pinned,
                                                        buffers=buffers)
                        assert mag.tobytes() == want[0].tobytes(), case
                        assert val.tobytes() == want[1].tobytes(), case


def test_evaluators_sharing_an_arena_read_no_stale_rows(asym_network):
    # X, E4 (pinned relay 2, one edge more) and D_LOG take the maximizer's
    # edges role at its largest shape in turn, then X again at a shorter n,
    # and a finite codebook shares the "snr" role; each result must match a
    # fresh evaluation, bit for bit
    gen = np.random.default_rng(71)
    power = PowerLevel.from_db(20.0)
    specs = (FullCsiSpec(), ConstrainedSpec(0.25, 2), PowerDependentSpec(1), FullCsiSpec())
    arena = ChunkBuffers(500)
    for n, spec in zip((500, 500, 500, 137), specs):
        f, g = _states(gen, n, 3)
        ev = resolve_codebook(spec, power)
        want = _allocating_maximizer(f, g, asym_network, power, ev.epsilon, ev.pinned_relay)[1]
        got = ev.best_snr(f, g, asym_network, power, buffers=arena)
        assert got.tobytes() == want.tobytes(), (n, spec)
    c3 = resolve_codebook(FiniteCodebook([[0, 1, 1], [1, 0, 1], [1, 1, 0]]), power)
    for n in (500, 61):
        f, g = _states(gen, n, 3)
        want = snr_per_vector(c3.canonical, f, g, asym_network, power).max(axis=1)
        got = c3.best_snr(f, g, asym_network, power, buffers=arena)
        assert got.tobytes() == want.tobytes(), n
