import json
import math
import subprocess
import sys

import numpy as np
import pytest

from relayquant.cli import main
from relayquant.montecarlo import CHUNK_TRIALS, worker_count

TINY_CONFIG = {
    "network": {
        "relay_count": 2,
        "power_scalers": [1.0, 1.0, 1.0],
        "variance_f": [1.0, 1.0],
        "variance_g": [1.0, 1.0],
    },
    "codebooks": [
        {"label": "pair", "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        {"label": "SRS", "type": "srs", "theta": [0.0, 0.0]},
    ],
    "p_grid_db": [5.0, 15.0],
    "trials_per_point": 5000,
    "seed": 99,
}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def test_simulate_writes_curves_and_manifest(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", TINY_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(cfg), "-o", str(out)]) == 0
    capsys.readouterr()
    assert (out / "pair.csv").is_file()
    assert (out / "SRS.csv").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["outputs"] == {"pair": "pair.csv", "SRS": "SRS.csv"}
    assert set(manifest["versions"]) == {"relayquant", "python", "numpy", "scipy"}
    assert manifest["versions"]["python"] == ".".join(map(str, sys.version_info[:3]))
    assert manifest["chunk_trials"] == CHUNK_TRIALS
    assert manifest["threads"] == worker_count()
    # both curves are plain, finite and of one trial count: one draw serves both
    assert manifest["draw_groups"] == [["pair", "SRS"]]
    header = (out / "pair.csv").read_text().splitlines()[0]
    assert header == "p_db,ser,std_err,trials"


def test_simulate_reruns_byte_identical(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", TINY_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "-c", str(cfg), "-o", str(out1)]) == 0
    assert main(["simulate", "-c", str(cfg), "-o", str(out2)]) == 0
    capsys.readouterr()
    for name in ("pair.csv", "SRS.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_empty_codebook_list_fails(tmp_path, capsys):
    bad = dict(TINY_CONFIG, codebooks=[])
    cfg = _write(tmp_path, "bad.json", bad)
    assert main(["simulate", "-c", str(cfg), "-o", str(tmp_path / "o")]) == 2
    assert "codebooks" in capsys.readouterr().err


def test_simulate_unknown_type_names_it(tmp_path, capsys):
    bad = dict(TINY_CONFIG, codebooks=[{"label": "x", "type": "wavelet"}])
    cfg = _write(tmp_path, "bad.json", bad)
    assert main(["simulate", "-c", str(cfg), "-o", str(tmp_path / "o")]) == 2
    assert "wavelet" in capsys.readouterr().err


def test_simulate_malformed_json_reports_position(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"network": [,]}', encoding="utf-8")
    assert main(["simulate", "-c", str(cfg), "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_simulate_bundled_config_names_resolve(capsys):
    # resolution only; running the bundles is covered by the acceptance suite
    from relayquant.cli import _config_path
    for name in ("fig2", "fig3.json", "fig4"):
        assert _config_path(name).name.endswith(".json")


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["slope"]) == 1
    assert main(["no-such-command"]) == 1


def test_slope_on_synthetic_inverse_power_curve(tmp_path, capsys):
    p_db = [float(p) for p in np.arange(10.0, 42.0, 4.0)]
    lines = ["p_db,ser,std_err,trials"]
    for p in p_db:
        lines.append(f"{p!r},{float(10 ** (-p / 10.0))!r},0.0,1000")
    path = tmp_path / "curve.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["slope", "-i", str(path), "--window", "10", "40"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["slope"] == pytest.approx(1.0, abs=0.01)


def test_slope_warns_on_unresolved_points(tmp_path, capsys):
    rows = "10.0,1e-2,1e-4,1000\n20.0,1e-3,1e-5,1000\n30.0,1e-4,{err},1000\n"
    path = tmp_path / "curve.csv"
    path.write_text("p_db,ser,std_err,trials\n" + rows.format(err="1e-6"), encoding="utf-8")
    assert main(["slope", "-i", str(path)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["max_rel_err"] == pytest.approx(0.01)
    assert "warning" not in captured.err

    path.write_text("p_db,ser,std_err,trials\n" + rows.format(err="1e-4"), encoding="utf-8")
    assert main(["slope", "-i", str(path)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["max_rel_err"] == pytest.approx(1.0)
    assert "unresolved" in captured.err


def test_slope_rejects_thin_window(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    path.write_text("p_db,ser,std_err,trials\n10.0,0.1,0.0,10\n20.0,0.01,0.0,10\n",
                    encoding="utf-8")
    assert main(["slope", "-i", str(path), "--window", "10", "20"]) == 2


@pytest.mark.parametrize("row, message", [
    ("20.0,nan,0.0,10", "ser must be finite and >= 0, got nan"),
    ("20.0,-0.01,0.0,10", "ser must be finite and >= 0"),
    ("20.0,0.01,inf,10", "std_err must be finite and >= 0"),
    ("10.0,0.01,0.0,10", "strictly ascending"),
    ("5.0,0.01,0.0,10", "strictly ascending"),
    ("5000.0,0.01,0.0,10", "power must be positive and finite"),
    ("nan,0.01,0.0,10", "power must be positive and finite"),
    ("20.0,0.01,0.0,0", ">= 1"),
    ("20.0,0.01,0.0", "bad curve row"),
    ("20.0,x,0.0,10", "could not convert"),
])
def test_slope_rejects_malformed_row_naming_its_line(tmp_path, capsys, row, message):
    path = tmp_path / "curve.csv"
    path.write_text(f"p_db,ser,std_err,trials\n10.0,0.1,0.01,10\n{row}\n30.0,0.001,0.0,10\n",
                    encoding="utf-8")
    assert main(["slope", "-i", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: line 3: ") and message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_analyze_reports(tmp_path, capsys, cb_c2, cb_c5):
    from relayquant import spec_to_json

    c5 = _write(tmp_path, "c5.json", spec_to_json(cb_c5))
    assert main(["analyze", "-i", str(c5)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["is_omrs"] is True and report["is_srs"] is False

    srs = _write(tmp_path, "srs.json", {"type": "srs", "theta": [0.0, 0.0, 0.0]})
    assert main(["analyze", "-i", str(srs)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["is_srs"] is True and report["diversity_cap"] == 3

    c2 = _write(tmp_path, "c2.json", spec_to_json(cb_c2))
    assert main(["analyze", "-i", str(c2)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["diversity_cap"] == 1 and report["min_witness_set"] == [3]


def test_analyze_rejects_bad_vectors(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json",
                 {"vectors": [[[1, 0], [0, 0]], [[1, 0]]]})
    assert main(["analyze", "-i", str(bad)]) == 2
    assert "mismatch" in capsys.readouterr().err

    overweight = _write(tmp_path, "ow.json", {"vectors": [[[1.5, 0], [0, 0]]]})
    assert main(["analyze", "-i", str(overweight)]) == 2
    assert "exceeds 1" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    {"type": "constrained", "epsilon": 0.25, "pinned_relay": 1},
    {"type": "full_csi"},
    {"type": "power_dep_constrained", "pinned_relay": 2},
], ids=lambda spec: spec["type"])
def test_analyze_names_the_continuous_type_it_rejects(tmp_path, capsys, spec):
    path = _write(tmp_path, "c.json", spec)
    assert main(["analyze", "-i", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}: analyze takes an explicit, srs or unitary "
                            f"codebook, got type {spec['type']!r}\n")
    assert captured.out == ""


def test_analyze_reads_supports_at_zero_tol(tmp_path, capsys):
    # 1e-7 is on both vectors' supports: relay 1 hits them both, and they
    # are not OMRS although their magnitude overlap is only 1e-14
    path = _write(tmp_path, "tiny.json",
                  {"vectors": [[[1e-7, 0], [0, 0], [1, 0]], [[1e-7, 0], [1, 0], [0, 0]]]})
    assert main(["analyze", "-i", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["is_omrs"] is False and report["diversity_cap"] == 1
    assert report["min_witness_set"] == [1]


def test_oracle_small_sample_run(capsys):
    assert main(["oracle", "--samples", "2000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_oracle_rejects_nonpositive_samples(capsys, samples):
    assert main(["oracle", "--samples", samples]) == 2
    err = capsys.readouterr().err
    assert "--samples" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_oracle_rejects_out_of_range_seed(capsys, seed):
    assert main(["oracle", "--samples", "100", "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seed: seed must be an integer in [0, 2**128)")
    assert "Traceback" not in err


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "relayquant.cli", "oracle", "--samples", "1000"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_simulate_ignores_grid_resolution_key(tmp_path, capsys):
    family = dict(TINY_CONFIG, codebooks=[
        {"label": "family", "type": "constrained", "epsilon": 0.25, "pinned_relay": 1},
        {"label": "X", "type": "full_csi"},
    ])
    plain = _write(tmp_path, "plain.json", family)
    keyed = _write(tmp_path, "keyed.json", dict(family, grid_resolution=8))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "-c", str(plain), "-o", str(out1)]) == 0
    assert main(["simulate", "-c", str(keyed), "-o", str(out2)]) == 0
    capsys.readouterr()
    for name in ("family.csv", "X.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("field, bad", [
    ("trials_per_point", dict(TINY_CONFIG, trials_per_point="many")),
    ("seed", dict(TINY_CONFIG, seed=None)),
    ("seed", dict(TINY_CONFIG, seed="x")),
    ("codebooks[0].trials_per_point", dict(TINY_CONFIG, codebooks=[
        dict(TINY_CONFIG["codebooks"][0], trials_per_point="x")])),
    ("p_grid_db", dict(TINY_CONFIG, p_grid_db=5)),
    ("seed", dict(TINY_CONFIG, seed=1.7)),
    ("seed", dict(TINY_CONFIG, seed=True)),
    ("trials_per_point", dict(TINY_CONFIG, trials_per_point=1000.9)),
    ("network", dict(TINY_CONFIG, network=dict(TINY_CONFIG["network"], relay_count=2.5))),
    ("network", dict(TINY_CONFIG, network=dict(TINY_CONFIG["network"], power_scalers="111"))),
    ("codebooks[1]", dict(TINY_CONFIG, codebooks=[TINY_CONFIG["codebooks"][0], {
        "label": "c", "type": "constrained", "epsilon": 0.25, "pinned_relay": 1.9}])),
    ("codebooks[1]", dict(TINY_CONFIG, codebooks=[TINY_CONFIG["codebooks"][0], {
        "label": "s", "type": "srs", "theta": "00"}])),
    ("p_grid_db", dict(TINY_CONFIG, p_grid_db=[])),
    ("p_grid_db", dict(TINY_CONFIG, p_grid_db=[10, 5])),
    ("p_grid_db", dict(TINY_CONFIG, p_grid_db="5")),
    ("estimator", dict(TINY_CONFIG, estimator="magic")),
    ("network", dict(TINY_CONFIG, network=dict(TINY_CONFIG["network"],
                                               power_scalers=[True, 0.5, 2]))),
    ("p_grid_db", dict(TINY_CONFIG, p_grid_db=["5", "15", "25"])),
    ("trials_per_point", dict(TINY_CONFIG, trials_per_point=0)),
    ("codebooks[0].trials_per_point", dict(TINY_CONFIG, codebooks=[
        dict(TINY_CONFIG["codebooks"][0], trials_per_point=0)])),
    ("network", dict(TINY_CONFIG, network=dict(TINY_CONFIG["network"], relay_cont=2))),
    ("codebooks[0]", dict(TINY_CONFIG, codebooks=[
        dict(TINY_CONFIG["codebooks"][0], trials_per_pont=100)])),
    ("codebooks[1]", dict(TINY_CONFIG, codebooks=[TINY_CONFIG["codebooks"][0], {
        "label": "c", "type": "constrained", "epsilon": 0.25, "epsilonn": 0.5,
        "pinned_relay": 1}])),
    ("seed", dict(TINY_CONFIG, seed=-1)),
    ("seed", dict(TINY_CONFIG, seed=2**128)),
])
def test_simulate_bad_field_names_it_without_traceback(tmp_path, capsys, field, bad):
    cfg = _write(tmp_path, "bad.json", bad)
    assert main(["simulate", "-c", str(cfg), "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f".{field}:" in err
    assert "Traceback" not in err


def test_simulate_unknown_top_level_field_names_it(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", dict(TINY_CONFIG, estimater="importance"))
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(cfg), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: unknown field 'estimater'\n"
    assert not out.exists()
    documented = _write(tmp_path, "doc.json", dict(TINY_CONFIG, description="d",
                                                   grid_resolution=8))
    assert main(["simulate", "-c", str(documented), "-o", str(out)]) == 0


@pytest.mark.parametrize("entry, message", [
    ({"label": "short", "vectors": [[[1, 0], [0, 0]]]}, "2 entries"),
    ({"label": "long", "vectors": [[[1, 0], [0, 0], [0, 0], [1, 0]]]}, "4 entries"),
    ({"label": "srs", "type": "srs", "theta": [0.0, 0.0, 0.0, 0.0]}, "4 entries"),
    ({"label": "pinned", "type": "constrained", "epsilon": 0.25, "pinned_relay": 4},
     "pinned_relay 4"),
])
def test_simulate_codebook_for_other_relay_count_names_entry(tmp_path, capsys, entry, message):
    three = {"relay_count": 3, "power_scalers": [1.0] * 4, "variance_f": [1.0] * 3,
             "variance_g": [1.0] * 3}
    codebooks = [{"label": "ok", "type": "srs", "theta": [0.0] * 3}, entry]
    for estimator in ("plain", "importance"):
        cfg = _write(tmp_path, "bad.json", dict(TINY_CONFIG, network=three, codebooks=codebooks,
                                                estimator=estimator))
        out = tmp_path / estimator
        assert main(["simulate", "-c", str(cfg), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert ".codebooks[1]:" in err and message in err
        assert "Traceback" not in err
        assert not out.exists()


def test_simulate_non_object_config_fails_cleanly(tmp_path, capsys):
    for top in (3, [TINY_CONFIG], "config"):
        cfg = _write(tmp_path, "top.json", top)
        assert main(["simulate", "-c", str(cfg), "-o", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "expected an object" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("threads, message", [("abc", "must be an integer"), ("0", ">= 1")])
def test_simulate_bad_thread_count_names_variable(tmp_path, capsys, monkeypatch, threads,
                                                  message):
    cfg = _write(tmp_path, "cfg.json", TINY_CONFIG)
    monkeypatch.setenv("RELAYQUANT_THREADS", threads)
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "RELAYQUANT_THREADS" in err and message in err
    assert "codebooks" not in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_codebook_unresolvable_at_grid_power_writes_nothing(tmp_path, capsys):
    # the power-dependent family needs P >= e, so 0 dB fails it; that must
    # be found before the first curve is written
    cfg = _write(tmp_path, "cfg.json", dict(TINY_CONFIG, p_grid_db=[0.0, 10.0], codebooks=[
        {"label": "SRS", "type": "srs", "theta": [0.0, 0.0]},
        {"label": "dep", "type": "power_dep_constrained", "pinned_relay": 1},
    ]))
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert ".codebooks[1]:" in err and "P >= e" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_out_of_range_grid_power_names_field(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", dict(TINY_CONFIG, p_grid_db=[5.0, 5000.0]))
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert ".p_grid_db:" in err and "5000.0 dB" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("first, second", [("a b", "a_b"), ("SRS", "SRS"), ("x/y", "x?y")])
def test_simulate_labels_sharing_an_output_file_fail_before_writing(tmp_path, capsys,
                                                                    first, second):
    srs = TINY_CONFIG["codebooks"][1]
    codebooks = [TINY_CONFIG["codebooks"][0], dict(srs, label=first), dict(srs, label=second)]
    cfg = _write(tmp_path, "cfg.json", dict(TINY_CONFIG, codebooks=codebooks))
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(cfg), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {cfg}.codebooks[2]: ")
    assert f"{second!r}" in captured.err and f"{first!r}" in captured.err
    assert not out.exists() and "wrote" not in captured.out


def test_simulate_manifest_lists_draw_groups(tmp_path, capsys):
    # an entry of its own trial count, a continuous family and every
    # importance curve draw apart
    codebooks = [TINY_CONFIG["codebooks"][0],
                 {"label": "family", "type": "constrained", "epsilon": 0.25, "pinned_relay": 1},
                 dict(TINY_CONFIG["codebooks"][1], trials_per_point=6000),
                 {"label": "X", "type": "full_csi"}]
    for estimator, groups in (("plain", [["pair"], ["family", "X"], ["SRS"]]),
                              ("importance", [["pair"], ["family"], ["SRS"], ["X"]])):
        cfg = _write(tmp_path, "cfg.json", dict(TINY_CONFIG, codebooks=codebooks,
                                                  estimator=estimator, trials_per_point=100))
        out = tmp_path / estimator
        assert main(["simulate", "-c", str(cfg), "-o", str(out)]) == 0
        capsys.readouterr()
        assert json.loads((out / "manifest.json").read_text())["draw_groups"] == groups


@pytest.mark.parametrize("label", [3.5, True, ["a"], {"x": 1}, "", None, 0])
def test_simulate_label_must_be_a_nonempty_string(tmp_path, capsys, label):
    codebooks = [TINY_CONFIG["codebooks"][0], dict(TINY_CONFIG["codebooks"][1], label=label)]
    cfg = _write(tmp_path, "cfg.json", dict(TINY_CONFIG, codebooks=codebooks))
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(cfg), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {cfg}.codebooks[1].label: ")
    assert "non-empty string" in captured.err and "Traceback" not in captured.err
    assert not out.exists() and "wrote" not in captured.out


def test_simulate_absent_label_defaults_to_entry_index(tmp_path, capsys):
    srs = {k: v for k, v in TINY_CONFIG["codebooks"][1].items() if k != "label"}
    codebooks = [TINY_CONFIG["codebooks"][0], srs]
    cfg = _write(tmp_path, "cfg.json", dict(TINY_CONFIG, codebooks=codebooks))
    out = tmp_path / "out"
    assert main(["simulate", "-c", str(cfg), "-o", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == {"pair": "pair.csv", "codebook1": "codebook1.csv"}


@pytest.mark.parametrize("spec", [
    {"label": 3.5, "vectors": [[[1, 0], [0, 0]]]},
    {"label": True, "vectors": [[[1, 0], [0, 0]]]},
    {"label": ["a"], "vectors": [[[1, 0], [0, 0]]]},
    {"label": {"x": 1}, "vectors": [[[1, 0], [0, 0]]]},
    {"label": "", "vectors": [[[1, 0], [0, 0]]]},
    {"label": 3, "type": "srs", "theta": [0.0, 0.0]},
    {"type": "unitary", "base": {"label": None, "type": "srs", "theta": [0.0, 0.0]},
     "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}])
def test_analyze_label_must_be_a_nonempty_string(tmp_path, capsys, spec):
    path = _write(tmp_path, "cb.json", spec)
    assert main(["analyze", "-i", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "label must be a non-empty string" in err and "Traceback" not in err


@pytest.mark.parametrize("taken", ["", "pair.csv", "manifest.json"])
def test_simulate_unwritable_output_exits_two(tmp_path, capsys, taken):
    # a directory where a file must go, or a file where the output directory must go
    cfg = _write(tmp_path, "cfg.json", TINY_CONFIG)
    out = tmp_path / "out"
    if taken:
        (out / taken).mkdir(parents=True)
    else:
        out.write_text("not a directory", encoding="utf-8")
    assert main(["simulate", "-c", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / taken}: ") and "Traceback" not in err


def test_simulate_accepts_integral_floats(tmp_path, capsys):
    ints = _write(tmp_path, "ints.json", dict(TINY_CONFIG, trials_per_point=1000))
    floats = _write(tmp_path, "floats.json", dict(TINY_CONFIG, trials_per_point=1e3, seed=99.0))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "-c", str(ints), "-o", str(out1)]) == 0
    assert main(["simulate", "-c", str(floats), "-o", str(out2)]) == 0
    capsys.readouterr()
    for name in ("pair.csv", "SRS.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


_SRS2 = {"type": "srs", "theta": [0.0, 0.0]}


def _deep_unitary(depth: int) -> str:
    """A spec nested `depth` unitary levels deep, as JSON text."""
    level = '{"type": "unitary", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "base": '
    return level * depth + json.dumps(_SRS2) + "}" * depth


@pytest.mark.parametrize("command", ["simulate", "analyze"])
@pytest.mark.parametrize("content, message", [
    (b"\xff{}", "can't decode byte 0xff"),
    (b"[" * 200_000, "nested too deeply"),
    (_deep_unitary(700).encode(), "nested too deeply"),
], ids=["not-utf8", "deep-json", "deep-spec"])
def test_undecodable_or_deeply_nested_file_names_it(tmp_path, capsys, command, content,
                                                     message):
    path = tmp_path / "bad.json"
    if command == "simulate" and content.startswith(b"{"):
        # the deep spec as the config's only codebook entry; json parses it
        config = json.dumps(dict(TINY_CONFIG, codebooks="SPEC")).encode()
        content = config.replace(b'"SPEC"', b"[" + content + b"]")
    path.write_bytes(content)
    args = ["simulate", "-c", str(path), "-o", str(tmp_path / "out")]
    assert main(args if command == "simulate" else ["analyze", "-i", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "analyze"])
@pytest.mark.parametrize("entry, message", [
    ({"type": "constrained", "epsilon": "abc", "pinned_relay": 1}, "epsilon must be a number"),
    ({"type": "constrained", "epsilon": 2, "pinned_relay": 1}, "[0, 1]"),
    ({"type": "constrained", "epsilon": 0.5, "pinned_relay": 0}, "1-based"),
    ({"type": "srs", "theta": None}, "theta must be a list"),
    ({"type": "srs", "theta": []}, "at least one phase"),
    ({"type": "unitary", "base": _SRS2, "matrix": [[[1, 0], [0, 0]], [[0, 0]]]},
     "length mismatch"),
    ({"type": "unitary", "base": _SRS2, "matrix": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]},
     "not unitary"),
    ({"type": "unitary", "base": {"type": "srs"}, "matrix": [[[1, 0]]]}, "base: "),
    ({"vectors": [[[1.5, 0], [0, 0]]]}, "exceeds 1"),
    ({"vectors": [[[1, 0], [0]]]}, "[re, im] pairs"),
    ({"type": "constrained", "epsilon": True, "pinned_relay": 1}, "epsilon must be a number"),
    ({"type": "srs", "theta": [0.0, "1"]}, "theta[1] must be a number"),
    ({"type": "srs", "theta": [math.inf, 0.0]}, "theta[0] must be finite"),
    ({"type": "srs", "theta": [0.0, math.nan]}, "theta[1] must be finite"),
    ({"vectors": [[[1, 0], ["0", 0]]]}, "vectors[0][1][0] must be a number"),
    ({"type": "unitary", "base": _SRS2, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, False]]]},
     "matrix[1][1][1] must be a number"),
    ({"type": "constrained", "pinned_relay": 1}, "missing required field 'epsilon'"),
    ({"type": "constrained", "epsilon": 0.5}, "missing required field 'pinned_relay'"),
    ({"type": "power_dep_constrained"}, "missing required field 'pinned_relay'"),
    ({"type": "srs"}, "missing required field 'theta'"),
    ({"type": "explicit"}, "missing required field 'vectors'"),
    ({"type": "unitary", "base": _SRS2}, "missing required field 'matrix'"),
    ({"type": "unitary", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
     "missing required field 'base'"),
    ({"type": "unitary", "base": _SRS2, "matrix": [[[math.nan, 0], [0, 0]], [[0, 0], [1, 0]]]},
     "not unitary"),
    ({"type": "constrained", "epsilonn": 0.25, "pinned_relay": 1}, "unknown field 'epsilonn'"),
    ({"type": "full_csi", "epsilon": 0.25}, "unknown field 'epsilon'"),
    ({"type": "srs", "theta": [0.0, 0.0], "trials_per_pont": 100},
     "unknown field 'trials_per_pont'"),
    ({"vectors": [[[1, 0], [0, 0]]], "theta": [0.0]}, "unknown field 'theta'"),
    ({"type": "unitary", "base": dict(_SRS2, vectors=[]), "matrix": [[[1, 0]]]},
     "base: unknown field 'vectors'"),
    ({"type": "unitary", "base": _SRS2, "matrix": [[[math.inf, 0], [0, 0]], [[0, 0], [1, 0]]]},
     "matrix is not unitary: it has a non-finite entry"),
])
def test_malformed_codebook_entry_names_it_once(tmp_path, capsys, command, entry, message):
    out = tmp_path / "out"
    if command == "simulate":
        codebooks = [TINY_CONFIG["codebooks"][0], dict(entry, label="bad")]
        cfg = _write(tmp_path, "cfg.json", dict(TINY_CONFIG, codebooks=codebooks))
        args, where = ["simulate", "-c", str(cfg), "-o", str(out)], f"{cfg}.codebooks[1]"
    else:
        spec = _write(tmp_path, "spec.json", entry)
        args, where = ["analyze", "-i", str(spec)], str(spec)
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {where}: ")
    assert captured.err.count(where) == 1 and message in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists() and "wrote" not in captured.out


def test_analyze_counts_a_rotated_copy_with_tied_peaks_once(tmp_path, capsys):
    # x and e^{j theta} x at theta = 2 pi 5 / 999 (about 0.031447): rounding
    # after the rotation leaves x's two tied magnitudes in the other order
    x = np.array([1.0, np.exp(0.3j)]) / np.sqrt(2.0)
    rows = (x, np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 1000)[5]) * x)
    path = _write(tmp_path, "cb.json", {"vectors": [[[z.real, z.imag] for z in row]
                                                    for row in rows]})
    assert main(["analyze", "-i", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["is_omrs"] is True and report["cap_from_cardinality"] == 1
    assert report["max_pairwise_overlap"] is None


@pytest.mark.parametrize("vectors, is_omrs, overlap", [
    ([[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]], True, 0.0),
    ([[[1, 0], [0, 0]], [[0, 1], [0, 0]]], True, None),
], ids=["e1,je1,e2", "e1,je1"])
def test_analyze_overlap_counts_phase_equivalent_vectors_once(tmp_path, capsys, vectors,
                                                              is_omrs, overlap):
    # e1 and j e1 are one beamformer: is_omrs and the overlap judge the
    # same distinct vectors, and one distinct vector has no pair to overlap
    path = _write(tmp_path, "cb.json", {"vectors": vectors})
    assert main(["analyze", "-i", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["is_omrs"] is is_omrs and report["max_pairwise_overlap"] == overlap
