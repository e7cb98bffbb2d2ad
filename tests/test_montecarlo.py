import importlib.resources
import io
import json
import math

import numpy as np
import pytest
from scipy import integrate

from relayquant import (
    FiniteCodebook,
    FullCsiSpec,
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
                                  spec_from_json, to_finite)
from relayquant.montecarlo import (ALPHA_FADE, ALPHA_PLAIN, CHUNK_TRIALS, CSV_HEADER,
                                   ChunkBuffers, DefensiveMixture, draw_groups, fade_factor)
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


def test_srs_times_unitary_round_trip_simulates_as_srs():
    # SRS F F^H, F the 3-point DFT: its off-diagonal entries are round-off
    # of 1e-16, outside the supports, so it evaluates and samples as SRS
    dft = np.exp(-2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    srs = SrsSpec((0.0, 0.0, 0.0))
    round_trip = UnitarySpec(UnitarySpec(srs, dft), dft.conj().T)
    assert 0 < np.abs(to_finite(round_trip).vectors - np.eye(3)).max() <= 1e-12
    canonical = resolve_codebook(round_trip, PowerLevel(1.0)).canonical
    assert DefensiveMixture(_fig2_network(), PowerLevel(1e3), canonical).relay.size == 0
    for estimator in ("plain", "importance"):
        a, b = (estimate_ser(SimulationPlan(_fig2_network(), spec, (20.0, 30.0),
                                            CHUNK_TRIALS + 5, 17, estimator=estimator))
                for spec in (srs, round_trip))
        assert _csv_bytes(a) == _csv_bytes(b), estimator


@pytest.mark.parametrize("threads", ["1", "2"])
def test_listed_copies_of_a_beamformer_simulate_as_the_codebook(monkeypatch, threads):
    # C3 with row 1 listed again and e^{0.7j} times row 2 appended: both are
    # beamformers C3 already has, so the argmax and the importance proposal
    # see C3's rows once each, and the curves are C3's byte for byte
    monkeypatch.setenv("RELAYQUANT_THREADS", threads)
    c3 = _FIG2_CODEBOOKS["C3"]
    copies = FiniteCodebook(np.vstack([c3.vectors, c3.vectors[:1],
                                       np.exp(0.7j) * c3.vectors[1:2]]))
    canonical = resolve_codebook(copies, PowerLevel(1.0)).canonical
    assert np.array_equal(canonical, resolve_codebook(c3, PowerLevel(1.0)).canonical)
    for estimator in ("plain", "importance"):
        a, b = (estimate_ser(SimulationPlan(_fig2_network(), spec, (30.0, 40.0),
                                            CHUNK_TRIALS + 5, 5, estimator=estimator))
                for spec in (c3, copies))
        assert _csv_bytes(a) == _csv_bytes(b), estimator


def test_plan_validation():
    with pytest.raises(ValueError, match="ascending"):
        SimulationPlan(_tiny_net(), SrsSpec((0.0, 0.0)), (10.0, 10.0), 100, 1)
    with pytest.raises(ValueError, match="trials_per_point"):
        SimulationPlan(_tiny_net(), SrsSpec((0.0, 0.0)), (10.0,), 0, 1)
    for seed in (-1, 2**128, 1.5):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*128\)"):
            SimulationPlan(_tiny_net(), SrsSpec((0.0, 0.0)), (10.0,), 100, seed)


@pytest.mark.parametrize("trials, message", [
    (2.5, "must be an integer"), (True, "must be an integer"), (False, "must be an integer"),
    ("7", "must be an integer"), (None, "must be an integer"), (0, "must be >= 1"),
    (-3, "must be >= 1"), (0.0, "must be >= 1")])
def test_plan_rejects_trials_that_are_not_a_positive_integer(trials, message):
    # a fraction, bool or string is not truncated or parsed into a count
    with pytest.raises(ValueError, match=f"trials_per_point {message}"):
        SimulationPlan(_tiny_net(), SrsSpec((0.0, 0.0)), (10.0,), trials, 1)


@pytest.mark.parametrize("trials", [7, 7.0, np.int64(7)])
def test_plan_takes_integral_trials_as_int(trials):
    plan = SimulationPlan(_tiny_net(), SrsSpec((0.0, 0.0)), (10.0,), trials, 1)
    assert type(plan.trials_per_point) is int and plan.trials_per_point == 7


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


def test_fade_factor_of_the_bundled_networks():
    # sum_r 1 / (2 min(s_0 var_f, s_r var_g)) is 1.79, 1.0 and 1.5 on the
    # fig2, fig3 and fig4 networks; k is the smallest integer above it
    for name in ("fig2", "fig3", "fig4"):
        net, _ = _bundled(name)
        assert fade_factor(net) == 2, name
        for p_db in (0.0, 40.0):
            power = PowerLevel.from_db(p_db)
            assert DefensiveMixture(net, power).fade_scale == math.sqrt(2.0 / power.linear)
    # kappa = (0.25, 0.5): the sum is 3, and k lies strictly above it
    assert fade_factor(NetworkConfig(2, (0.25, 1.0, 0.5), (1.0, 4.0), (1.0, 1.0))) == 4
    assert fade_factor(NetworkConfig(1, (1.0, 1.0), (1.0,), (1.0,))) == 1


_FADE_NETWORKS = {
    2: NetworkConfig(2, (1.0, 0.5, 2.0), (1.2, 0.8), (1.5, 0.7)),
    3: _fig2_network(),
}


@pytest.mark.parametrize("relays", [2, 3])
@pytest.mark.parametrize("p_db", [0.0, 40.0])
@pytest.mark.parametrize("kind", ["finite", "continuous"])
def test_fade_rule_weights_are_bounded_likelihood_ratios(relays, p_db, kind):
    # at 0 dB, P < k and the fade component widens the gains; at 40 dB it
    # fades them.  Either way E_q[p/q] = 1 and the defensive share bounds
    # every weight.  A continuous family gets the fade component alone
    net = _FADE_NETWORKS[relays]
    power = PowerLevel.from_db(p_db)
    assert (power.linear < fade_factor(net)) == (p_db == 0.0)
    rows = {2: [[1, 1], [1, 0]], 3: [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}[relays]
    spec = (FiniteCodebook(np.array(rows, dtype=complex)) if kind == "finite"
            else ConstrainedSpec(0.25, 1))
    vectors = getattr(resolve_codebook(spec, power), "canonical", None)
    proposal = DefensiveMixture(net, power, vectors)
    multi_relay_rows = sum(np.count_nonzero(row) > 1 for row in rows)
    assert proposal.relay.size == (multi_relay_rows if kind == "finite" else 0)
    _, _, w = proposal.sample(rng.stream(23, 0, relays), 200_000)
    assert np.all(w >= 0.0) and w.max() <= 1.0 / ALPHA_PLAIN
    assert abs(w.mean() - 1.0) <= 4.0 * w.std() / math.sqrt(w.size)


def _log_cn(z, mean, variance):
    """log of the CN(mean, variance) density at complex z."""
    return -math.log(math.pi * variance) - abs(z - mean) ** 2 / variance


def _mixture_weight(net, power, rows, f, g):
    """p/q at one state, written from the mixture's definition in scalar Python.

    rows are the canonical vectors with two or more support relays; k is
    fade_factor(net).  q = ALPHA_PLAIN p + ALPHA_FADE q_fade + sum_k a_k q_k,
    with the cancellation shares a_k splitting the rest evenly.
    """
    k = fade_factor(net)
    p = power.linear
    p0 = net.power_scalers[0] * p
    gains = list(f) + list(g)
    variances = list(net.variance_f) + list(net.variance_g)

    def log_fade_gain(z, variance):
        # each gain keeps its law, or has its variance scaled by k / P
        return math.log(0.5) + np.logaddexp(_log_cn(z, 0.0, variance),
                                            _log_cn(z, 0.0, variance * k / p))

    log_p = sum(_log_cn(z, 0.0, v) for z, v in zip(gains, variances))
    log_fade = [log_fade_gain(z, v) for z, v in zip(gains, variances)]
    # with no cancellation component the fade component takes the whole rest
    fade_share = ALPHA_FADE if rows else 1.0 - ALPHA_PLAIN
    log_q = [math.log(ALPHA_PLAIN) + log_p, math.log(fade_share) + sum(log_fade)]
    rest = (1.0 - ALPHA_PLAIN - ALPHA_FADE) / max(len(rows), 1)
    rho = [net.power_scalers[r + 1] * p / (1.0 + abs(f[r]) ** 2 * p0) for r in range(len(f))]
    for x in rows:
        mags = [abs(v) for v in x]
        star = max(r for r in range(len(x)) if mags[r] >= max(mags) - 1e-12)
        others = [r for r in range(len(x)) if r != star and mags[r] > 1e-12]
        # g at r* zeroes x's SNR numerator sum_r x_r f_r g_r sqrt(rho_r)
        coef = x[star] * f[star] * math.sqrt(rho[star])
        mu = -sum(x[r] * f[r] * g[r] * math.sqrt(rho[r]) for r in others) / coef
        den = 1.0 + sum(mags[r] ** 2 * abs(g[r]) ** 2 * rho[r] for r in others)
        den += mags[star] ** 2 * abs(mu) ** 2 * rho[star]
        s2 = den / (p0 * abs(coef) ** 2)
        at = len(f) + star
        log_q.append(math.log(rest) + sum(log_fade) - log_fade[at]
                     + _log_cn(gains[at], mu, s2))
    top = max(log_q)
    return math.exp(log_p - top) / sum(math.exp(v - top) for v in log_q)


@pytest.mark.parametrize("label", ["C3", "SRS_U2", "SRS"])
@pytest.mark.parametrize("p_db", [0.0, 40.0])
def test_weights_equal_the_mixture_density_ratio(label, p_db):
    net = _fig2_network()
    power = PowerLevel.from_db(p_db)
    canonical = resolve_codebook(_FIG2_CODEBOOKS[label], power).canonical
    proposal = DefensiveMixture(net, power, canonical)
    f, g, w = proposal.sample(rng.stream(29, 0, 0), 300)
    rows = [x for x in canonical if np.count_nonzero(np.abs(x) > 1e-12) > 1]
    expected = [_mixture_weight(net, power, rows, f[i], g[i]) for i in range(300)]
    np.testing.assert_allclose(w, expected, rtol=1e-9, atol=0.0)


def test_cancellation_pivots_on_the_largest_entry():
    # r* is the last support relay within ZERO_TOL of the row's peak
    # magnitude: a tiny on-support entry is never r*, and ties go to the
    # last relay, so of fig2's codebooks only SRS_U2's components move
    net = _fig2_network()
    power = PowerLevel.from_db(30.0)
    cases = {label: to_finite(spec).vectors for label, spec in _bundled("fig2")[1].items()}
    cases["TINY"] = np.array([[1, 1e-7, 0], [0, 0, 1]], dtype=complex)
    gen = np.random.default_rng(3)
    cases["RANDOM"] = gen.uniform(0.1, 1.0, (20, 3)) * np.exp(1j * gen.uniform(0, 7, (20, 3)))
    expected = {"C1": [2], "C2": [2, 2], "C3": [2, 2, 1], "O1": [2], "SRS": [],
                "SRS_U1": [1, 1], "SRS_U2": [1, 0, 2], "TINY": [0]}
    for label, vectors in cases.items():
        canonical = resolve_codebook(FiniteCodebook(vectors), power).canonical
        proposal = DefensiveMixture(net, power, canonical)
        rows = canonical[np.count_nonzero(np.abs(canonical) > 1e-12, axis=1) > 1]
        peak = np.abs(rows).max(axis=1)
        assert np.array_equal(np.abs(proposal.pivot), peak), label
        assert np.array_equal(rows[np.arange(len(rows)), proposal.relay], proposal.pivot)
        if label in expected:
            assert proposal.relay.tolist() == expected[label], label
        for r, star in enumerate(proposal.relay):
            later = np.abs(rows[r, star + 1:])
            assert np.all(later < peak[r] - 1e-12), label


@pytest.mark.parametrize("p_db", [30.0, 40.0])
def test_srs_u2_weights_after_the_pivot_move(p_db):
    # SRS_U2's rows peak off their last relay, so its pivots moved
    net = _fig2_network()
    power = PowerLevel.from_db(p_db)
    proposal = DefensiveMixture(net, power,
                                resolve_codebook(_FIG2_CODEBOOKS["SRS_U2"], power).canonical)
    _, _, w = proposal.sample(rng.stream(31, 0, 0), 200_000)
    assert np.all(w >= 0.0) and w.max() <= 1.0 / ALPHA_PLAIN
    assert abs(w.mean() - 1.0) <= 4.0 * w.std() / math.sqrt(w.size)


def test_tiny_entry_costs_little_precision():
    # [1, 1e-7, 0] pivots on its entry 1, so its cancellation component
    # stays at the gains' scale.  fig2 network, 65,536 trials, seed 5:
    # std_err / ser read 0.0261 and 0.0275 at 30 and 40 dB, against 0.0252
    # and 0.0263 without the tiny entry.  Pivoting on the last support
    # relay (the tiny entry) read 0.0473 and 0.0413
    net = _fig2_network()
    rel = {}
    for label, rows in (("tiny", [[1, 1e-7, 0], [0, 0, 1]]), ("bare", [[1, 0, 0], [0, 0, 1]])):
        curve = estimate_ser(SimulationPlan(net, FiniteCodebook(np.array(rows, dtype=complex)),
                                            (30.0, 40.0), 65_536, 5, estimator="importance"))
        rel[label] = [e / s for s, e in zip(curve.ser, curve.std_err)]
    for tiny, bare in zip(rel["tiny"], rel["bare"]):
        assert tiny <= 1.15 * bare, rel


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
            # chunk order, one rounding per addition (builtin sum is
            # compensated from Python 3.12 on)
            total = total_sq = 0.0
            for s, s_sq in sums:
                total += s
                total_sq += s_sq
            mean = total / trials
            var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
            assert (curve.ser[i], curve.std_err[i]) == (mean, math.sqrt(var / trials)), (spec, p_db)


def test_c3_curves_thread_invariant_with_partial_chunk(monkeypatch):
    # a finite codebook runs on the calling thread at any thread count; the
    # partial last chunk uses leading slices of the full chunks' stores
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


@pytest.mark.parametrize("kind, threads, chunks, pools", [
    ("finite", "2", 3, []), ("finite", "8", 3, []), ("finite", "1", 3, []),
    ("finite", "8", 1, []), ("continuous", "2", 3, [2]), ("continuous", "8", 3, [3]),
    ("continuous", "8", 12, [8]), ("continuous", "1", 3, []), ("continuous", "8", 1, [])])
def test_thread_pool_follows_codebook_kind(monkeypatch, kind, threads, chunks, pools):
    # a finite codebook runs on the calling thread, with no pool, at any
    # thread count; a continuous family runs one strand per thread, at most
    # one per chunk
    import relayquant.montecarlo as montecarlo
    from concurrent.futures import ThreadPoolExecutor

    created = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            created.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setenv("RELAYQUANT_THREADS", threads)
    spec = _FIG2_CODEBOOKS["C3"] if kind == "finite" else ConstrainedSpec(0.25, 1)
    for estimator in ("plain", "importance"):
        created.clear()
        estimate_ser(SimulationPlan(_fig2_network(), spec, (10.0, 30.0),
                                    (chunks - 1) * CHUNK_TRIALS + 3, 5, estimator=estimator))
        assert created == pools, estimator


def test_continuous_family_thread_invariant_with_partial_chunk(monkeypatch):
    # at 3 threads the five chunks split into strands of 2, 2 and 1, which
    # must interleave back into chunk order
    for estimator in ("plain", "importance"):
        plan = SimulationPlan(_fig2_network(), ConstrainedSpec(0.25, 1), (5.0, 15.0),
                              4 * CHUNK_TRIALS + 7, 37, estimator=estimator)
        curves = []
        for threads in ("1", "2", "3", "8"):
            monkeypatch.setenv("RELAYQUANT_THREADS", threads)
            buf = io.StringIO()
            estimate_ser(plan).write_csv(buf)
            curves.append(buf.getvalue())
        assert curves[1:] == curves[:1] * 3, estimator


def test_arena_roles_keep_one_shape_and_are_taken_in_the_first_chunk(monkeypatch):
    # every array of a chunk that grows with its trials is a role of the
    # strand's ChunkBuffers: each role keeps one (rows, dtype), is first
    # requested before that strand starts its second chunk (which calls
    # gaussian_tail for the (G + 1)th time on a grid of G powers), a plain
    # plan requests no role of the importance proposal (only the draw's, the
    # geometry's, the evaluators' and the Q values'), and a finite group
    # takes every role on the calling thread
    import threading

    import relayquant.montecarlo as montecarlo

    events = []  # (thread, arena, role, rows, dtype); arena None marks a tail call

    class RecordingArena(ChunkBuffers):
        def take(self, role, rows, n, dtype=float):
            events.append((threading.get_ident(), self, role, rows, np.dtype(dtype)))
            return super().take(role, rows, n, dtype)

    tail = montecarlo.gaussian_tail

    def marked_tail(x, **kwargs):
        events.append((threading.get_ident(), None, None, None, None))
        return tail(x, **kwargs)

    monkeypatch.setattr(montecarlo, "ChunkBuffers", RecordingArena)
    monkeypatch.setattr(montecarlo, "gaussian_tail", marked_tail)
    plain_roles = {"states", "fg", "f2", "g2", "rho", "a", "b",
                   "u", "slope", "enter", "leave", "edges", "mag", "summand", "mask", "num",
                   "den", "c", "val", "best_c", "better", "snr", "snr_row", "q"}
    grid = (20.0, 40.0)
    # the last two cases are draw groups: a chunk calls the tail once per
    # power and plan
    for specs, estimator in (((_FIG2_CODEBOOKS["C3"],), "importance"),
                             ((_FIG2_CODEBOOKS["C3"],), "plain"),
                             ((ConstrainedSpec(0.25, 1),), "importance"),
                             (tuple(_FIG2_CODEBOOKS.values()), "plain"),
                             ((ConstrainedSpec(0.25, 1), PowerDependentSpec(1), FullCsiSpec()),
                              "plain")):
        plans = [SimulationPlan(_fig2_network(), spec, grid, 3 * CHUNK_TRIALS + 7, 41,
                                estimator=estimator) for spec in specs]
        for threads in ("1", "2"):
            case = (estimator, type(specs[0]).__name__, len(specs), threads)
            monkeypatch.setenv("RELAYQUANT_THREADS", threads)
            events.clear()
            estimate_ser(*plans)
            shapes, evaluator, first = {}, {}, {}
            for i, (thread, arena, role, rows, dtype) in enumerate(events):
                if arena is not None:
                    assert shapes.setdefault(role, (rows, dtype)) == (rows, dtype), (case, role)
                    evaluator.setdefault(arena, thread)
                    first.setdefault((arena, role), i)
            for (arena, role), i in first.items():
                tails = [j for j, (thread, marked, *_) in enumerate(events)
                         if marked is None and thread == evaluator[arena]]
                assert i < tails[len(grid) * len(plans)], (case, role)
            if estimator == "plain":
                assert set(shapes) <= plain_roles, case
            else:
                assert {"prepared", "hit_states", "terms"} <= set(shapes), case
            if not isinstance(specs[0], (ConstrainedSpec, PowerDependentSpec)):
                assert set(evaluator.values()) == {threading.get_ident()}, case


def _bundled(name):
    """(network, {label: spec}) of a bundled config."""
    cfg = json.loads((importlib.resources.files("relayquant") / "configs" / f"{name}.json")
                     .read_text(encoding="utf-8"))
    n = cfg["network"]
    net = NetworkConfig(n["relay_count"], tuple(n["power_scalers"]), tuple(n["variance_f"]),
                        tuple(n["variance_g"]))
    return net, {e["label"]: spec_from_json({k: v for k, v in e.items()
                                             if k != "trials_per_point"})
                 for e in cfg["codebooks"]}


def _csv_bytes(curve):
    buf = io.StringIO()
    curve.write_csv(buf)
    return buf.getvalue()


@pytest.mark.parametrize("threads", ["1", "2", "8"])
def test_draw_group_curves_equal_each_plan_alone(monkeypatch, threads):
    # fig2's seven codebooks share each chunk's draw, products and geometry
    # (a finite group: the calling thread), and so do fig4's continuous
    # families (a continuous group: strands); a curve's bytes must not depend
    # on the other plans of its group
    monkeypatch.setenv("RELAYQUANT_THREADS", threads)
    trials = 3 * CHUNK_TRIALS + 7
    fig2_net, fig2 = _bundled("fig2")
    fig4_net, fig4 = _bundled("fig4")
    plans = [SimulationPlan(fig2_net, spec, (0.0, 8.0, 16.0), trials, 43)
             for spec in fig2.values()]
    plans += [SimulationPlan(fig4_net, spec, (5.0, 15.0), trials, 47)
              for label, spec in fig4.items() if label != "SRS"]
    assert draw_groups(plans) == [list(range(7)), list(range(7, 12))]
    grouped = estimate_ser(*plans)
    assert len(grouped) == len(plans)
    for i, (plan, curve) in enumerate(zip(plans, grouped)):
        assert _csv_bytes(curve) == _csv_bytes(estimate_ser(plan)), i


def test_draw_group_draws_and_forms_geometry_once_per_chunk(monkeypatch):
    import relayquant.montecarlo as montecarlo

    drawn, built = [], []
    sample, geometry = montecarlo.sample_channels, montecarlo.geometry_at_power

    def counting_sample(*args):
        drawn.append(args[2])
        return sample(*args)

    def counting_geometry(*args):
        built.append(args[2].linear)
        return geometry(*args)

    monkeypatch.setattr(montecarlo, "sample_channels", counting_sample)
    monkeypatch.setattr(montecarlo, "geometry_at_power", counting_geometry)
    fig2_net, fig2 = _bundled("fig2")
    grid = (0.0, 8.0, 16.0)
    plans = [SimulationPlan(fig2_net, spec, grid, 3 * CHUNK_TRIALS + 7, 43)
             for spec in fig2.values()]
    for threads in ("1", "2"):
        monkeypatch.setenv("RELAYQUANT_THREADS", threads)
        drawn.clear()
        built.clear()
        estimate_ser(*plans)
        assert sorted(drawn) == [7] + [CHUNK_TRIALS] * 3, threads
        assert len(built) == 4 * len(grid), threads


def test_mixed_call_returns_curves_in_argument_order():
    # importance plans draw alone; plain plans group by trial count and by
    # evaluator kind; the curves come back in the order the plans were given
    net = _fig2_network()
    grid = (10.0, 20.0)
    short, long = CHUNK_TRIALS + 3, 2 * CHUNK_TRIALS + 1
    c3, srs, family = _FIG2_CODEBOOKS["C3"], _FIG2_CODEBOOKS["SRS"], ConstrainedSpec(0.25, 1)
    plans = [SimulationPlan(net, c3, grid, short, 9, estimator="importance"),
             SimulationPlan(net, c3, grid, short, 9),
             SimulationPlan(net, family, grid, short, 9),
             SimulationPlan(net, srs, grid, long, 9),
             SimulationPlan(net, srs, grid, short, 9, estimator="importance"),
             SimulationPlan(net, _FIG2_CODEBOOKS["O1"], grid, short, 9),
             SimulationPlan(net, PowerDependentSpec(1), grid, long, 9),
             SimulationPlan(net, srs, grid, short, 9)]
    assert draw_groups(plans) == [[0], [1, 5, 7], [2], [3], [4], [6]]
    curves = estimate_ser(*plans)
    assert isinstance(curves, tuple) and len(curves) == len(plans)
    for i, (plan, curve) in enumerate(zip(plans, curves)):
        assert _csv_bytes(curve) == _csv_bytes(estimate_ser(plan)), i
    assert isinstance(estimate_ser(plans[0]), SerCurve)
    with pytest.raises(TypeError):
        estimate_ser()


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


def test_chunk_sums_fold_left_to_right():
    # per-chunk partials combine with one rounding per addition, in chunk
    # order; a compensated sum (builtin sum from Python 3.12, math.fsum)
    # would keep the 1.0 here and change a curve's last bits
    from relayquant.montecarlo import _fold_sum

    partials = [1e16, 1.0, -1e16]
    assert math.fsum(partials) == 1.0
    assert _fold_sum(partials) == 0.0
    assert _fold_sum(iter([0.5, 0.25])) == 0.75
    assert _fold_sum([]) == 0.0


def _c3_proposal(p_db):
    """(network, power, evaluator, mixture) of C3 on the fig2 network at p_db."""
    net = _fig2_network()
    power = PowerLevel.from_db(p_db)
    ev = resolve_codebook(_FIG2_CODEBOOKS["C3"], power)
    return net, power, ev, DefensiveMixture(net, power, ev.canonical)


def test_weights_reuse_of_buffers_leaks_no_stale_data():
    # weights writes its gathers and intermediates into the buffers' hit
    # stores; a call after a larger or a smaller hit set must read none of
    # the earlier call's data
    net, power, ev, proposal = _c3_proposal(35.0)
    shared = ChunkBuffers(CHUNK_TRIALS)
    h, geometry = proposal.states(proposal.prepare(rng.stream(11, 0, 0), CHUNK_TRIALS, shared),
                                  shared)
    hit = np.flatnonzero(ev.best_snr(h[:3].T, h[3:].T, net, power, geometry=geometry) < 300.0)
    hit_sets = [np.arange(CHUNK_TRIALS), hit[::3], hit, hit[1::2], np.arange(0, CHUNK_TRIALS, 7)]
    assert len({s.size for s in hit_sets}) == len(hit_sets)
    for trials in hit_sets:
        fresh = ChunkBuffers(CHUNK_TRIALS)
        expected = proposal.weights(h, geometry, trials, fresh)
        got = proposal.weights(h, geometry, trials, shared)
        assert got.shape == (trials.size,)
        assert got.tobytes() == expected.tobytes(), trials.size


def test_sample_returns_fresh_arrays():
    _, _, _, proposal = _c3_proposal(40.0)
    first = proposal.sample(rng.stream(3, 0, 0), 500)
    second = proposal.sample(rng.stream(3, 0, 0), 500)
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()
        assert not np.shares_memory(a, b)


def test_importance_chunk_takes_few_fresh_bytes():
    # after a warm-up chunk, a chunk's (2R, n)-sized arrays live in the
    # buffers: prepare, states and weights allocate only the small per-chunk
    # index arrays and the argmax's and the cancellation points' temporaries.
    # numpy reports its array data to tracemalloc.  Before the importance
    # stores, the second chunk's peak here was 1,682,281 bytes (numpy 2.4,
    # Python 3.11)
    import tracemalloc

    net, power, ev, proposal = _c3_proposal(40.0)
    buffers = ChunkBuffers(CHUNK_TRIALS)

    def chunk(c):
        draw = proposal.prepare(rng.stream(1, 0, c), CHUNK_TRIALS, buffers)
        h, geometry = proposal.states(draw, buffers)
        q = gaussian_tail(np.sqrt(2.0 * ev.best_snr(h[:3].T, h[3:].T, net, power,
                                                    geometry=geometry)))
        hit = np.flatnonzero(q)
        q[hit] *= proposal.weights(h, geometry, hit, buffers)
        return hit.size

    chunk(0)
    tracemalloc.start()
    try:
        hits = chunk(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hits > 1000
    assert peak <= 1_682_281 // 2, peak


def test_continuous_chunk_takes_few_fresh_bytes(monkeypatch):
    # after a warm-up chunk, a continuous plan's chunk takes its draw, its
    # geometry, the maximizer's working arrays and its Q values from the
    # strand's buffers; what is left is numpy's per-call scratch, the
    # largest the 128 KiB cast buffer of the complex-by-real products in
    # sample_channels and geometry_at_power.  Before the maximizer and the Q
    # values took roles, the second chunk's peak here was 1,688,904 bytes,
    # against 136,200 after (numpy 2.4, Python 3.11)
    import tracemalloc

    stream = rng.stream

    def traced_from_chunk_1(seed, lane, block):
        if block == 1:
            tracemalloc.start()
        return stream(seed, lane, block)

    monkeypatch.setenv("RELAYQUANT_THREADS", "1")
    monkeypatch.setattr(rng, "stream", traced_from_chunk_1)
    plan = SimulationPlan(_fig2_network(), ConstrainedSpec(0.25, 2), (5.0, 15.0),
                          2 * CHUNK_TRIALS, 1)
    try:
        estimate_ser(plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_688_904 // 10, peak
