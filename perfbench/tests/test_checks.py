"""Each check passes the program's output and rejects a perturbed copy."""

import statistics

import numpy as np
import pytest

import checks
import reference
import workloads
from relayquant import codebooks, montecarlo, structure
from relayquant.model import PowerLevel
from relayquant.montecarlo import SimulationPlan


@pytest.fixture(scope="module")
def fig2():
    cfg = workloads.bundled_config("fig2")
    return workloads.network_of(cfg), dict(workloads.codebook_specs(cfg))


def _curve(network, spec, grid, seed, estimator="plain"):
    return montecarlo.estimate_ser(SimulationPlan(network, spec, grid, 65536, seed,
                                                  None, estimator))


def test_plain_srs_check_rejects_scaled_curve(fig2):
    network, specs = fig2
    grid = workloads.PLAIN_GRID
    curve = _curve(network, specs["SRS"], grid, 11)
    ref = [reference.srs_ser(network.power_scalers, network.variance_f, network.variance_g, p)
           for p in grid]
    assert checks.within_sigma("srs", curve.ser, curve.std_err, ref, workloads.Z_PLAIN).passed
    scaled = [1.2 * s for s in curve.ser]
    assert not checks.within_sigma("srs", scaled, curve.std_err, ref, workloads.Z_PLAIN).passed


def test_importance_srs_check_rejects_scaled_curve(fig2):
    network, specs = fig2
    grid = (30.0, 35.0, 40.0, 45.0, 50.0)
    ref = [reference.srs_ser(network.power_scalers, network.variance_f, network.variance_g, p)
           for p in grid]
    rounds = [_curve(network, specs["SRS"], grid, seed, "importance").ser for seed in (1, 2, 3)]

    def check(curves):
        ratio = statistics.median(checks.geomean_ratio(c, ref) for c in curves)
        return checks.within_ratio("srs", ratio, workloads.IMPORTANCE_REL_TOL)

    assert check(rounds).passed
    assert not check([[1.2 * s for s in c] for c in rounds]).passed


def test_nesting_check_rejects_swapped_order(fig2):
    network, specs = fig2
    curves = [_curve(network, specs[k], workloads.PLAIN_GRID, 5).ser for k in workloads.NESTED]
    assert checks.ordered("nested", curves).passed
    assert not checks.ordered("nested", curves[::-1]).passed


def test_decreasing_check_rejects_flat_step():
    assert checks.decreasing("d", [0.2, 0.1, 0.05]).passed
    assert not checks.decreasing("d", [0.2, 0.1, 0.1]).passed


def test_maximizer_check_rejects_value_above_exact():
    cfg = workloads.bundled_config("fig4")
    network = workloads.network_of(cfg)
    f, g = workloads._draws(network, 2048, np.random.default_rng(4))
    _, program = codebooks.constrained_best_snr(f, g, network, PowerLevel.from_db(10.0),
                                                0.25, 1, cfg["grid_resolution"])
    u, w, p0 = reference.cophased_coefficients(f, g, network.power_scalers, 10.0)
    exact = reference.exact_cophased_snr(u, w, p0, np.array([0.5, 0.0, 0.0]))
    limit = workloads.MAXIMIZER_SHORTFALL[3]
    assert checks.maximizer_bounded("m", program, exact, limit).passed
    raised = program.copy()
    raised[7] = exact[7] * 1.01
    assert not checks.maximizer_bounded("m", raised, exact, limit).passed


def test_cap_checks_reject_wrong_cap():
    gen = np.random.default_rng(8)
    for design in ("omrs_small", "srs_large"):
        cb = workloads.generate_codebook(design, gen)
        report = structure.analyze_codebook(cb)
        supports = [set(np.flatnonzero(np.abs(row) > 0.0)) for row in cb.vectors]
        ref = reference.min_hitting_set(supports)
        assert checks.equal("cap", report.diversity_cap, ref).passed
        assert not checks.equal("cap", report.diversity_cap + 1, ref).passed
    omrs = structure.analyze_codebook(workloads.generate_codebook("omrs_small", gen))
    assert checks.same_truth("omrs", omrs.diversity_cap == 5, omrs.is_omrs, "").passed
    assert not checks.same_truth("omrs", omrs.diversity_cap - 1 == 5, omrs.is_omrs, "").passed
