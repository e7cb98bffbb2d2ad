import json
import subprocess
import sys

import numpy as np
import pytest

from relayquant.cli import main

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
])
def test_simulate_bad_field_names_it_without_traceback(tmp_path, capsys, field, bad):
    cfg = _write(tmp_path, "bad.json", bad)
    assert main(["simulate", "-c", str(cfg), "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f".{field}:" in err
    assert "Traceback" not in err


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
