import io
import json
import math

import numpy as np
import pytest
from scipy import integrate

from relayquant import (
    FiniteCodebook,
    NetworkConfig,
    PowerLevel,
    SerCurve,
    SimulationPlan,
    SrsSpec,
    UnitarySpec,
    estimate_diversity,
    estimate_ser,
    gaussian_tail,
    rng,
)
from relayquant.cli import main
from relayquant.codebooks import (ConstrainedSpec, PowerDependentSpec, resolve_codebook,
                                  to_finite)
from relayquant.montecarlo import ALPHA_PLAIN, CHUNK_TRIALS, CSV_HEADER, DefensiveMixture
from relayquant.structure import diversity_cap
from tests.conftest import U1, U2


def _q_reference(x):
    val, _ = integrate.quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
                            x, np.inf)
    return val


def test_gaussian_tail_at_zero():
    assert gaussian_tail(0.0) == 0.5


def test_gaussian_tail_against_quadrature():
    for x in (0.5, 1.0, 2.0, 3.0, 5.0, 8.0):
        assert gaussian_tail(x) == pytest.approx(_q_reference(x), rel=1e-10)
    assert gaussian_tail(3.0) == pytest.approx(1.3499e-3, rel=1e-4)


def test_gaussian_tail_lower_bound_points():
    # classical tail bound: Q(x) >= x/(1+x^2) * phi(x)
    for x in (0.5, 1.0, 2.0, 4.0):
        bound = x / (1 + x * x) * math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
        assert gaussian_tail(x) >= bound


def _tiny_net():
    return NetworkConfig(2, (1.0, 1.0, 1.0), (1.0, 1.0), (1.0, 1.0))


def test_ser_of_zero_codebook_is_half():
    cb = FiniteCodebook(np.zeros((1, 2), dtype=complex))
    plan = SimulationPlan(_tiny_net(), cb, (0.0, 10.0), 500, 9)
    curve = estimate_ser(plan)
    assert curve.ser == (0.5, 0.5)
    assert curve.std_err == (0.0, 0.0)


def test_ser_range_and_determinism():
    plan = SimulationPlan(_tiny_net(), SrsSpec((0.0, 0.0)), (0.0, 10.0, 20.0), 20_000, 123)
    a = estimate_ser(plan)
    b = estimate_ser(plan)
    assert a == b
    assert all(0.0 < s <= 0.5 for s in a.ser)


def test_ser_invariant_under_worker_count(monkeypatch):
    plan = SimulationPlan(_tiny_net(), SrsSpec((0.0, 0.0)), (5.0, 15.0), 30_000, 7)
    monkeypatch.setenv("RELAYQUANT_THREADS", "1")
    serial = estimate_ser(plan)
    monkeypatch.setenv("RELAYQUANT_THREADS", "8")
    threaded = estimate_ser(plan)
    assert serial == threaded


def test_ser_invariant_under_entry_order():
    net = _tiny_net()
    vecs = np.array([[1, 0], [0, 1], [0.6, 0.7]], dtype=complex)
    a = estimate_ser(SimulationPlan(net, FiniteCodebook(vecs), (10.0, 20.0), 20_000, 5))
    b = estimate_ser(SimulationPlan(net, FiniteCodebook(vecs[::-1]), (10.0, 20.0), 20_000, 5))
    assert a.ser == b.ser


def test_ser_monotone_in_codebook_growth():
    net = _tiny_net()
    small = FiniteCodebook(np.array([[1, 0]], dtype=complex))
    grown = FiniteCodebook(np.array([[1, 0], [0, 1]], dtype=complex))
    a = estimate_ser(SimulationPlan(net, small, (0.0, 10.0, 20.0), 30_000, 77))
    b = estimate_ser(SimulationPlan(net, grown, (0.0, 10.0, 20.0), 30_000, 77))
    assert all(bb <= aa for aa, bb in zip(a.ser, b.ser))


def test_curve_point_equals_one_point_plan():
    # every grid point evaluates the same chunk draws, so point i of a curve
    # cannot depend on which other powers share its plan
    net = _fig2_network()
    grid = (5.0, 15.0, 25.0)
    c3 = FiniteCodebook(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex))
    cases = [(c3, "plain"), (c3, "importance"), (PowerDependentSpec(1), "plain"),
             (PowerDependentSpec(1), "importance")]
    for spec, estimator in cases:
        curve = estimate_ser(SimulationPlan(net, spec, grid, 9000, 41, estimator=estimator))
        for i, p_db in enumerate(grid):
            one = estimate_ser(SimulationPlan(net, spec, (p_db,), 9000, 41, estimator=estimator))
            assert list(one.rows()) == [list(curve.rows())[i]], (spec, estimator, p_db)


def test_plain_srs_curve_non_increasing_exactly():
    # on one draw each relay's SNR rises with P, so every trial's Q value,
    # and hence the sum over the shared draws, falls: no sigma slack needed
    grid = tuple(float(p) for p in range(0, 42, 3))
    curve = estimate_ser(SimulationPlan(_fig2_network(), SrsSpec((0.0, 0.0, 0.0)), grid,
                                        20_000, 8))
    assert all(b <= a for a, b in zip(curve.ser, curve.ser[1:]))


def test_one_stream_per_chunk(monkeypatch):
    calls = []
    original = rng.stream

    def counting(seed, lane, block):
        calls.append((seed, lane, block))
        return original(seed, lane, block)

    monkeypatch.setattr(rng, "stream", counting)
    trials = 2 * CHUNK_TRIALS + 17
    for estimator in ("plain", "importance"):
        calls.clear()
        estimate_ser(SimulationPlan(_fig2_network(), SrsSpec((0.0, 0.0, 0.0)),
                                    (0.0, 10.0, 20.0, 30.0), trials, 3, estimator=estimator))
        assert sorted(calls) == [(3, 0, 0), (3, 0, 1), (3, 0, 2)]


def test_relay_gains_once_per_chunk_and_power(monkeypatch):
    # one geometry per (chunk, power): under importance the proposal builds
    # it, and its cancellation points, the argmax and the weights share it
    from relayquant import model

    calls = []
    original = model.relay_gains

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(model, "relay_gains", counting)
    c3 = FiniteCodebook(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex))
    grid = (10.0, 20.0, 30.0, 40.0)
    trials = 2 * CHUNK_TRIALS + 17
    cases = [(c3, "plain", 1), (SrsSpec((0.0, 0.0, 0.0)), "plain", 1),
             (ConstrainedSpec(0.25, 1), "plain", 1), (c3, "importance", 1),
             (SrsSpec((0.0, 0.0, 0.0)), "importance", 1),
             (ConstrainedSpec(0.25, 1), "importance", 1)]
    for spec, estimator, per_chunk_power in cases:
        calls.clear()
        estimate_ser(SimulationPlan(_fig2_network(), spec, grid, trials, 3,
                                    estimator=estimator))
        assert len(calls) == per_chunk_power * 3 * len(grid), (spec, estimator)


def test_proposal_geometry_is_geometry_of_its_states(monkeypatch):
    # states builds one geometry of the faded states and recomputes a, b
    # in place where it redraws g; that must be, bit for bit, the geometry
    # of the states it returns
    from relayquant import montecarlo
    from relayquant.model import geometry_at_power, snr_geometry

    net = _fig2_network()
    power = PowerLevel.from_db(40.0)
    c3 = FiniteCodebook(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex))
    proposal = DefensiveMixture(net, power, resolve_codebook(c3, power).canonical)
    built = []

    def recording(*args):
        built.append(geometry_at_power(*args))
        return built[-1]

    monkeypatch.setattr(montecarlo, "geometry_at_power", recording)
    f, g, _ = proposal.sample(rng.stream(7, 0, 0), CHUNK_TRIALS)
    assert len(built) == 1
    for kept, fresh in zip(built[0], snr_geometry(f, g, net, power)):
        assert kept.shape == fresh.shape == (3, CHUNK_TRIALS)
        assert kept.tobytes() == fresh.tobytes()


def test_constrained_family_thread_invariant(monkeypatch):
    plan = SimulationPlan(_fig2_network(), ConstrainedSpec(0.25, 1), (5.0, 10.0, 15.0),
                          3 * CHUNK_TRIALS, 17)
    curves = []
    for threads in ("1", "2"):
        monkeypatch.setenv("RELAYQUANT_THREADS", threads)
        buf = io.StringIO()
        estimate_ser(plan).write_csv(buf)
        curves.append(buf.getvalue())
    assert curves[0] == curves[1]


def test_phase_rotated_selection_curves_identical():
    net = NetworkConfig(3, (1.0,) * 4, (1.0,) * 3, (1.0,) * 3)
    grid = (5.0, 15.0, 25.0)
    for estimator in ("plain", "importance"):
        a = estimate_ser(SimulationPlan(net, SrsSpec((0.0, 0.0, 0.0)), grid, 50_000, 31,
                                        estimator=estimator))
        b = estimate_ser(SimulationPlan(
            net, SrsSpec((np.pi / 4, np.pi / 2, 2 * np.pi / 3)), grid, 50_000, 31,
            estimator=estimator))
        assert a == b  # bit-identical, not just close


def test_plan_validation():
    with pytest.raises(ValueError, match="ascending"):
        SimulationPlan(_tiny_net(), SrsSpec((0.0, 0.0)), (10.0, 10.0), 100, 1)
    with pytest.raises(ValueError, match="trials_per_point"):
        SimulationPlan(_tiny_net(), SrsSpec((0.0, 0.0)), (10.0,), 0, 1)
    for seed in (-1, 2**128, 1.5):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*128\)"):
            SimulationPlan(_tiny_net(), SrsSpec((0.0, 0.0)), (10.0,), 100, seed)


def test_plan_rejects_codebook_for_other_relay_count():
    net = _fig2_network()
    short = FiniteCodebook(np.array([[1, 0], [0, 1]], dtype=complex))
    long = FiniteCodebook(np.eye(4, dtype=complex))
    for spec in (short, long, SrsSpec((0.0, 0.0)), UnitarySpec(SrsSpec((0.0, 0.0)), np.eye(2))):
        with pytest.raises(ValueError, match="3 relays"):
            SimulationPlan(net, spec, (10.0,), 100, 1)
    for spec in (ConstrainedSpec(0.25, 4), PowerDependentSpec(4)):
        with pytest.raises(ValueError, match="pinned_relay 4 is out of range 1..3"):
            SimulationPlan(net, spec, (10.0,), 100, 1, estimator="importance")
    SimulationPlan(net, ConstrainedSpec(0.25, 3), (10.0,), 100, 1)


def test_diversity_fit_exact_power_law():
    p_db = (10.0, 20.0, 30.0, 40.0)
    ser = tuple(float(10.0 ** -(2.0 * p / 10.0)) for p in p_db)
    curve = SerCurve(p_db, ser, (0.0,) * 4, (1,) * 4)
    est = estimate_diversity(curve, (10.0, 40.0))
    assert est.slope == pytest.approx(2.0, abs=1e-12)
    assert est.residual < 1e-12


def test_diversity_fit_with_noise():
    gen = np.random.default_rng(101)
    p_db = tuple(float(p) for p in range(10, 42, 2))
    d = 1.7
    ser = tuple(float(3.0 * 10 ** (-d * p / 10.0) * (1 + gen.uniform(-0.01, 0.01)))
                for p in p_db)
    curve = SerCurve(p_db, ser, (0.0,) * len(p_db), (1,) * len(p_db))
    est = estimate_diversity(curve, (10.0, 40.0))
    assert est.slope == pytest.approx(d, abs=0.02)


def test_diversity_fit_default_window_is_top_three():
    p_db = (10.0, 20.0, 30.0, 40.0)
    ser = tuple(float(10.0 ** -(1.5 * p / 10.0)) for p in p_db)
    curve = SerCurve(p_db, ser, (0.0,) * 4, (1,) * 4)
    est = estimate_diversity(curve)
    assert est.window == (20.0, 40.0)
    assert est.slope == pytest.approx(1.5, abs=1e-12)


def test_diversity_fit_errors():
    curve = SerCurve((10.0, 20.0, 30.0), (1e-2, 0.0, 1e-4), (0.0,) * 3, (1,) * 3)
    with pytest.raises(ValueError, match="insufficient trials"):
        estimate_diversity(curve, (10.0, 30.0))
    with pytest.raises(ValueError, match="need >= 3"):
        estimate_diversity(curve, (10.0, 20.0))


def test_high_power_slope_respects_structural_cap():
    # fitted slope stays below the hitting-set cap plus statistical slack
    net = NetworkConfig(3, (1.0, 0.5, 2.0, 2.0), (1.2, 0.8, 1.0), (1.5, 1.7, 0.7))
    grid = tuple(float(p) for p in (14, 18, 22, 26))
    for vectors, window in (
        (np.array([[0, 1, 1]], dtype=complex), (14.0, 26.0)),
        (np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex), (14.0, 26.0)),
    ):
        cb = FiniteCodebook(vectors)
        cap = diversity_cap(cb)[0]
        curve = estimate_ser(SimulationPlan(net, cb, grid, 200_000, 99))
        est = estimate_diversity(curve, window)
        assert est.slope <= cap + 0.3


def test_curve_csv_round_trip():
    curve = SerCurve((10.0, 20.0), (1.25e-3, 3.5e-5), (1e-5, 1e-6), (1000, 1000))
    buf = io.StringIO()
    curve.write_csv(buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == CSV_HEADER
    back = SerCurve.read_csv(io.StringIO(text))
    assert back == curve


def test_curve_csv_header_enforced():
    with pytest.raises(ValueError, match="header"):
        SerCurve.read_csv(io.StringIO("a,b,c,d\n1,2,3,4\n"))


def _fig2_network():
    return NetworkConfig(3, (1.0, 0.5, 2.0, 2.0), (1.2, 0.8, 1.0), (1.5, 1.7, 0.7))


def test_importance_agrees_with_plain():
    # both estimators are unbiased, so where plain sampling resolves the
    # curve they must agree within the combined standard error
    net = _fig2_network()
    specs = {
        "C1": FiniteCodebook(np.array([[0, 1, 1]], dtype=complex)),
        "C3": FiniteCodebook(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex)),
        "SRS": SrsSpec((0.0, 0.0, 0.0)),
        "SRS_U1": UnitarySpec(SrsSpec((0.0, 0.0, 0.0)), U1),
    }
    for label, spec in specs.items():
        plain = estimate_ser(SimulationPlan(net, spec, (10.0, 20.0), 100_000, 2024))
        imp = estimate_ser(SimulationPlan(net, spec, (10.0, 20.0), 100_000, 2024,
                                          estimator="importance"))
        for i, p_db in enumerate(plain.p_db):
            sigma = math.hypot(plain.std_err[i], imp.std_err[i])
            assert abs(imp.ser[i] - plain.ser[i]) <= 3.0 * sigma, (label, p_db)


def test_importance_weights_are_bounded_likelihood_ratios():
    # E_q[p/q] = 1 exactly, and the defensive share bounds every weight; SRS
    # and the continuous families have no cancellation component
    net = _fig2_network()
    cb = FiniteCodebook(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex))
    for spec, components in ((cb, 3), (SrsSpec((0.0, 0.0, 0.0)), 0),
                             (ConstrainedSpec(0.25, 1), 0)):
        for p_db in (10.0, 40.0):
            power = PowerLevel.from_db(p_db)
            vectors = getattr(resolve_codebook(spec, power), "canonical", None)
            proposal = DefensiveMixture(net, power, vectors)
            assert proposal.relay.size == components
            _, _, w = proposal.sample(rng.stream(5, 0, 0), 200_000)
            assert np.all(w >= 0.0) and w.max() <= 1.0 / ALPHA_PLAIN
            assert abs(w.mean() - 1.0) <= 4.0 * w.std() / math.sqrt(w.size)


def _importance_config(tmp_path):
    cfg = {
        "network": {"relay_count": 3, "power_scalers": [1.0, 0.5, 2.0, 2.0],
                    "variance_f": [1.2, 0.8, 1.0], "variance_g": [1.5, 1.7, 0.7]},
        "codebooks": [
            {"label": "C3", "vectors": [[[0, 0], [1, 0], [1, 0]], [[1, 0], [0, 0], [1, 0]],
                                        [[1, 0], [1, 0], [0, 0]]]},
            {"label": "SRS", "type": "srs", "theta": [0.0, 0.0, 0.0]},
        ],
        "p_grid_db": [20.0, 40.0],
        "trials_per_point": 10_000,
        "seed": 31,
        "estimator": "importance",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_importance_csvs_rerun_and_thread_invariant(tmp_path, monkeypatch, capsys):
    cfg = _importance_config(tmp_path)
    outputs = []
    for run, threads in enumerate(("1", "1", "2")):
        monkeypatch.setenv("RELAYQUANT_THREADS", threads)
        out = tmp_path / f"out{run}"
        assert main(["simulate", "-c", str(cfg), "-o", str(out)]) == 0
        outputs.append({name: (out / name).read_bytes() for name in ("C3.csv", "SRS.csv")})
    capsys.readouterr()
    assert outputs[0] == outputs[1] == outputs[2]


def test_unknown_estimator_names_field(tmp_path, capsys):
    cfg = _importance_config(tmp_path)
    obj = json.loads(cfg.read_text())
    obj["estimator"] = "magic"
    cfg.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["simulate", "-c", str(cfg), "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "estimator" in err and "magic" in err
    with pytest.raises(ValueError, match="estimator"):
        SimulationPlan(_tiny_net(), SrsSpec((0.0, 0.0)), (10.0,), 100, 1, estimator="magic")


def test_diversity_fit_reports_worst_relative_error():
    p_db = (10.0, 20.0, 30.0)
    curve = SerCurve(p_db, (1e-2, 1e-3, 1e-4), (1e-4, 5e-5, 5e-5), (1,) * 3)
    assert estimate_diversity(curve).max_rel_err == pytest.approx(0.5)


_FIG2_CODEBOOKS = {
    "C3": FiniteCodebook(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex)),
    "O1": FiniteCodebook(np.array([[1, 0, 0], [0, -0.8, 1]], dtype=complex)),
    "SRS_U2": UnitarySpec(SrsSpec((0.0, 0.0, 0.0)), U2),
    "SRS": SrsSpec((0.0, 0.0, 0.0)),
}


def test_importance_chunk_equals_sample_reference():
    # estimate_ser prepares a chunk once, shares each power's geometry with
    # the argmax and weights only trials with Q > 0; none of that may change
    # a bit against sample + best_snr + gaussian_tail over every trial
    net = _fig2_network()
    n = CHUNK_TRIALS
    for label, spec in _FIG2_CODEBOOKS.items():
        curve = estimate_ser(SimulationPlan(net, spec, (30.0, 50.0), n, 77,
                                            estimator="importance"))
        for i, p_db in enumerate(curve.p_db):
            power = PowerLevel.from_db(p_db)
            ev = resolve_codebook(spec, power)
            proposal = DefensiveMixture(net, power, ev.canonical)
            f, g, w = proposal.sample(rng.stream(77, 0, 0), n)
            q = gaussian_tail(np.sqrt(2.0 * ev.best_snr(f, g, net, power))) * w
            mean = float(q.sum()) / n
            var = max(0.0, (float(np.square(q).sum()) - n * mean * mean) / (n - 1))
            assert (curve.ser[i], curve.std_err[i]) == (mean, math.sqrt(var / n)), (label, p_db)
            assert 0.0 < mean < 1e-4, (label, p_db)


def test_sparse_cancel_points_equal_dense_form():
    # the mixture sums each component's vector over its nonzero relays off r*
    # only; the dense form runs every component over every relay
    from relayquant.model import beamformed_sums, canonical_rows, snr_geometry, snr_terms

    net = _fig2_network()
    for label in ("C3", "O1", "SRS_U2"):
        vectors = canonical_rows(to_finite(_FIG2_CODEBOOKS[label]).vectors)
        for p_db in (30.0, 50.0):
            power = PowerLevel.from_db(p_db)
            proposal = DefensiveMixture(net, power, vectors)
            f, g, _ = proposal.sample(rng.stream(3, 0, 1), CHUNK_TRIALS)
            rho, a, b = snr_geometry(f, g, net, power)
            others = vectors[[k for k, row in enumerate(vectors) if np.count_nonzero(row) > 1]]
            relay, pivot = proposal.relay, proposal.pivot[:, None]
            assert np.array_equal(others[np.arange(relay.size), relay], proposal.pivot)
            others[np.arange(relay.size), relay] = 0.0
            acc, den = beamformed_sums(others.T[:, :, None], a, b)
            f_star, rho_star = f.T[relay], rho[relay]
            coef_star, _ = snr_terms(f_star, 1.0, rho_star)
            c = pivot * coef_star
            mu = -acc / c
            den += abs(pivot) ** 2 * (mu.real ** 2 + mu.imag ** 2) * rho_star
            s2 = den / (net.power_scalers[0] * power.linear * (c.real ** 2 + c.imag ** 2))
            sparse = proposal._cancel_point(np.arange(relay.size)[:, None], a[proposal.support],
                                            b[proposal.support], f_star, rho_star)
            assert proposal.support.shape[0] == (2 if label == "SRS_U2" else 1)
            assert sparse[0].tobytes() == mu.tobytes(), (label, p_db)
            assert sparse[1].tobytes() == s2.tobytes(), (label, p_db)


def test_importance_thread_invariant_with_dense_vectors(monkeypatch):
    # O1 has an entry of -0.8 and SRS_U2 two nonzero entries off r*
    net = _fig2_network()
    for label in ("O1", "SRS_U2"):
        plan = SimulationPlan(net, _FIG2_CODEBOOKS[label], (30.0, 40.0, 50.0),
                              3 * CHUNK_TRIALS + 5, 19, estimator="importance")
        curves = []
        for threads in ("1", "2"):
            monkeypatch.setenv("RELAYQUANT_THREADS", threads)
            buf = io.StringIO()
            estimate_ser(plan).write_csv(buf)
            curves.append(buf.getvalue())
        assert curves[0] == curves[1], label


def _fresh_chunk_q(plan, chunk, size, power, ev):
    """Q values of one plain chunk from fresh arrays: sample, geometry, argmax, tail."""
    from relayquant.codebooks import FiniteEvaluator
    from relayquant.model import sample_channels, snr_geometry, snr_per_vector

    net = plan.network
    f, g = sample_channels(net, rng.stream(plan.seed, 0, chunk), size)
    if isinstance(ev, FiniteEvaluator):
        best = snr_per_vector(ev.canonical, f, g, net, power,
                              geometry=snr_geometry(f, g, net, power)).max(axis=1)
    else:
        best = ev.best_snr(f, g, net, power)
    return gaussian_tail(np.sqrt(2.0 * best))


def test_plain_chunks_equal_fresh_array_reference():
    # estimate_ser forms the channel products once per chunk, the geometry
    # once per power, and writes both into per-worker buffers whose leading
    # slices serve the partial last chunk; none of that may change a bit
    net14 = NetworkConfig(14, tuple(np.linspace(0.5, 2.0, 15)), tuple(np.linspace(0.6, 1.4, 14)),
                          tuple(np.linspace(1.5, 0.7, 14)))
    cases = [(_fig2_network(), _FIG2_CODEBOOKS["C3"]), (_fig2_network(), _FIG2_CODEBOOKS["SRS"]),
             (_fig2_network(), PowerDependentSpec(2)), (net14, SrsSpec(tuple(np.linspace(0, 3, 14))))]
    trials = 2 * CHUNK_TRIALS + 17
    for net, spec in cases:
        plan = SimulationPlan(net, spec, (5.0, 12.0, 30.0), trials, 23)
        curve = estimate_ser(plan)
        for i, p_db in enumerate(plan.p_grid_db):
            power = PowerLevel.from_db(p_db)
            ev = resolve_codebook(spec, power)
            q = np.concatenate([_fresh_chunk_q(plan, c, min(CHUNK_TRIALS, trials - c * CHUNK_TRIALS),
                                               power, ev) for c in range(3)])
            sums = [(float(x.sum()), float(np.square(x).sum()))
                    for x in np.split(q, [CHUNK_TRIALS, 2 * CHUNK_TRIALS])]
            total = sum(s for s, _ in sums)
            total_sq = sum(s for _, s in sums)
            mean = total / trials
            var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
            assert (curve.ser[i], curve.std_err[i]) == (mean, math.sqrt(var / trials)), (spec, p_db)


def test_c3_curves_thread_invariant_with_partial_chunk(monkeypatch):
    # each worker thread holds its own chunk buffers
    for estimator in ("plain", "importance"):
        plan = SimulationPlan(_fig2_network(), _FIG2_CODEBOOKS["C3"], (10.0, 30.0, 50.0),
                              3 * CHUNK_TRIALS + 5, 29, estimator=estimator)
        curves = []
        for threads in ("1", "2"):
            monkeypatch.setenv("RELAYQUANT_THREADS", threads)
            buf = io.StringIO()
            estimate_ser(plan).write_csv(buf)
            curves.append(buf.getvalue())
        assert curves[0] == curves[1], estimator


def test_plan_rejects_codebook_unresolvable_at_a_grid_power():
    with pytest.raises(ValueError, match="P >= e"):
        SimulationPlan(_fig2_network(), PowerDependentSpec(1), (0.0, 10.0), 100, 1)
    SimulationPlan(_fig2_network(), PowerDependentSpec(1), (5.0, 10.0), 100, 1)


def test_plan_resolves_each_grid_power_once(monkeypatch):
    import relayquant.montecarlo as montecarlo

    calls = []
    original = montecarlo.resolve_codebook

    def counting(spec, power):
        calls.append(power.linear)
        return original(spec, power)

    monkeypatch.setattr(montecarlo, "resolve_codebook", counting)
    grid = (10.0, 20.0, 30.0)
    for spec in (SrsSpec((0.0, 0.0, 0.0)), PowerDependentSpec(1)):
        for estimator in ("plain", "importance"):
            calls.clear()
            estimate_ser(SimulationPlan(_fig2_network(), spec, grid, 100, 2, estimator=estimator))
            assert calls == [PowerLevel.from_db(p).linear for p in grid], (spec, estimator)
