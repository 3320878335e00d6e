import json

import pytest

from tilediff.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_models_listing(capsys):
    code, out, _ = run(["models"], capsys)
    assert code == 0
    for name in ("silver", "silver_twisted", "cap", "casper_scaffold"):
        assert name in out
    assert "none (load required)" in out
    assert "hat" in out


def test_models_json(capsys):
    code, out, _ = run(["models", "--json"], capsys)
    assert code == 0
    rows = json.loads(out)
    by_name = {r["name"]: r for r in rows}
    assert by_name["cap"]["tiles"] == 24
    assert by_name["casper_scaffold"]["displacement"] == "none (load required)"
    assert by_name["casper_scaffold"]["deformations"] == ["hex", "ht", "spectre"]


def test_peaks_run_and_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    args = ["peaks", "--model", "silver", "--radius", "2", "--threshold",
            "1e-4", "--iters", "25", "--out", "run1"]
    code, out, _ = run(args, capsys)
    assert code == 0
    assert "peaks with intensity" in out
    args2 = args[:-1] + ["run2"]
    code, _, _ = run(args2, capsys)
    assert code == 0
    b1 = (tmp_path / "run1.csv").read_bytes()
    b2 = (tmp_path / "run2.csv").read_bytes()
    assert b1 == b2
    assert (tmp_path / "run1.json").read_bytes() == \
        (tmp_path / "run2.json").read_bytes()
    assert (tmp_path / "run1.svg").exists()


def test_peaks_deformation_summary(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    code, out, _ = run(["peaks", "--model", "silver", "--deformation",
                        "equal-lengths", "--radius", "2", "--threshold",
                        "1e-4", "--iters", "25"], capsys)
    assert code == 0
    assert "lattice-periodic" in out
    assert "period generators" in out


def test_peaks_from_lengths_exact(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    code, out, _ = run(["peaks", "--model", "silver", "--deformation",
                        "from-lengths:4-2*sqrt2,4-2*sqrt2", "--radius", "1",
                        "--threshold", "1e-4", "--iters", "20"], capsys)
    assert code == 0


def test_peaks_from_lengths_rejects_decimals(capsys):
    code, _, err = run(["peaks", "--model", "silver", "--deformation",
                        "from-lengths:1.17157,1.17157"], capsys)
    assert code == 1
    assert "not exact" in err


@pytest.mark.parametrize("lengths", ["a,b", "1/0,1", ",1",
                                     "4-2*sqrt2,4-2*sqrt2*"])
def test_peaks_from_lengths_rejects_malformed(lengths, tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    code, out, err = run(["peaks", "--model", "silver", "--deformation",
                          f"from-lengths:{lengths}"], capsys)
    assert code == 1
    assert "usage error" in err and "cannot parse length" in err
    assert not out and not any(tmp_path.iterdir())


def test_peaks_weight_list(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    code, out, _ = run(["peaks", "--model", "silver", "--weights",
                        "1.4142135623730951,-1", "--radius", "1",
                        "--threshold", "1e-25", "--iters", "25"], capsys)
    assert code == 0
    code, _, err = run(["peaks", "--model", "silver", "--weights", "a,b"],
                       capsys)
    assert code == 1


def test_peaks_rejects_unknown_deformation(capsys):
    code, _, err = run(["peaks", "--model", "cap", "--deformation", "spiral"],
                       capsys)
    assert code == 1
    assert "spiral" in err


def test_peaks_missing_data_exit_code(capsys):
    code, _, err = run(["peaks", "--model", "casper_scaffold"], capsys)
    assert code == 3
    assert "displacement" in err


@pytest.mark.parametrize("flag,value", [
    ("--radius", "-1"), ("--radius", "nan"), ("--internal-cutoff", "0"),
    ("--threshold", "0"), ("--threshold", "-1"), ("--iters", "0"),
    ("--iters", "1001"), ("--iters", "5" + "0" * 400),
    ("--weights", "nan,1"), ("--weights", "inf,1")])
def test_peaks_rejects_bad_numeric_flags(flag, value, capsys):
    code, _, err = run(["peaks", "--model", "silver", flag, value], capsys)
    assert code == 1
    assert "usage error" in err and flag in err


@pytest.mark.parametrize("argv,flag", [
    (["patch", "--model", "silver", "--steps", "-1"], "--steps"),
    (["patch", "--model", "silver", "--radius", "-1"], "--radius"),
    (["patch", "--model", "silver", "--radius", "nan"], "--radius"),
    (["window", "--model", "silver", "--generations", "0"], "--generations"),
    (["window", "--model", "silver", "--resolution", "-3"], "--resolution"),
    (["window", "--model", "silver", "--zoom", "1"], "--zoom"),
    (["window", "--model", "silver", "--zoom", "0.5,0"], "--zoom"),
    (["peaks", "--model", "cap", "--center", "0,nan"], "--center"),
    (["peaks", "--model", "silver", "--weights", "1"], "--weights"),
    # rejected before allocating: a 1.2e12-candidate box, a box past int64,
    # and 1.2e23 patch points
    (["peaks", "--model", "cap", "--internal-cutoff", "100"], "--internal-cutoff"),
    (["peaks", "--model", "silver", "--center", "1e300"], "--center"),
    (["patch", "--model", "silver", "--steps", "60"], "--steps"),
    (["patch", "--model", "silver", "--steps", "5" + "0" * 400], "--steps"),
    # without the bound a billion generations would run for days
    (["window", "--model", "silver", "--generations", "1001"], "--generations"),
    (["window", "--model", "silver", "--generations", "1" + "0" * 9], "--generations"),
    # a zoom strip exists only for 1d windows
    (["window", "--model", "cap", "--zoom", "0,1"], "--zoom"),
    # cell indices past 2**53 at the first step
    (["window", "--model", "silver", "--resolution", "70", "--generations", "3"],
     "--resolution")])
def test_rejects_bad_flags(argv, flag, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    code, out, err = run(argv, capsys)
    assert code == 1
    assert "usage error" in err and flag in err
    assert not out and not any(tmp_path.iterdir())


def test_usage_error_exit_code(capsys):
    code, _, _ = run(["peaks", "--model", "nosuch"], capsys)
    assert code == 1


def test_verify_silver(capsys):
    code, out, _ = run(["verify", "--model", "silver"], capsys)
    assert code == 0
    assert "analytic-oracle" in out
    assert "0 failed" in out


def test_verify_cap(capsys):
    code, out, _ = run(["verify", "--model", "cap"], capsys)
    assert code == 0
    assert "sixfold-exact" in out and "pf-eigenvalue" in out


def test_verify_casper_skips_without_data(capsys):
    code, out, _ = run(["verify", "--model", "casper_scaffold"], capsys)
    assert code == 0
    assert "SKIP" in out
    assert "ht-lattice-constant" in out


def test_window_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    code, out, _ = run(["window", "--model", "silver", "--generations", "14"],
                       capsys)
    assert code == 0
    assert (tmp_path / "window_silver.svg").exists()
    code, out, _ = run(["window", "--model", "silver_twisted",
                        "--generations", "14", "--zoom", "0,0.5",
                        "--out", "tw.svg"], capsys)
    assert code == 0
    assert "zoom" in (tmp_path / "tw.svg").read_text()


def test_window_rejects_oversized_step(tmp_path, capsys, monkeypatch):
    from tilediff import windows
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    monkeypatch.setattr(windows, "MAX_STEP_CELLS", 1000)
    code, out, err = run(["window", "--model", "cap", "--generations", "12"],
                         capsys)
    assert code == 1
    assert "usage error" in err and "--resolution" in err
    assert "above the ceiling 1000" in err
    assert not out and not any(tmp_path.iterdir())


def test_window_missing_data(capsys):
    code, _, _ = run(["window", "--model", "casper_scaffold"], capsys)
    assert code == 3


def test_patch_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    code, out, _ = run(["patch", "--model", "silver", "--steps", "5"], capsys)
    assert code == 0
    lines = (tmp_path / "patch_silver.csv").read_text().splitlines()
    assert lines[0] == "type,x,y"
    assert len(lines) > 20


def test_patch_radius_centres_on_patch(tmp_path, capsys, monkeypatch):
    # an inflated seed tile drifts from the origin; --radius keeps the
    # points around the centroid of the whole patch
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    for model, steps, rows in (("cap", "4", 54), ("silver", "12", 33)):
        code, out, _ = run(["patch", "--model", model, "--steps", steps,
                            "--radius", "20", "--out", f"{model}.csv"], capsys)
        assert code == 0
        lines = (tmp_path / f"{model}.csv").read_text().splitlines()
        assert len(lines) == 1 + rows
        assert out.startswith(f"{rows} control points")


def test_patch_missing_data(capsys):
    code, out, err = run(["patch", "--model", "casper_scaffold"], capsys)
    assert code == 3 and not out
    assert "displacement" in err


def test_data_loading_via_flag(tmp_path, capsys, monkeypatch):
    # round-trip the silver displacement through --data
    from tilediff.models import builtin, save_displacement
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    data = tmp_path / "silver.json"
    save_displacement(builtin("silver").displacement, data)
    code, out, _ = run(["verify", "--model", "silver", "--data", str(data)],
                       capsys)
    assert code == 0


def test_commands_share_one_model(tmp_path, capsys, monkeypatch):
    from tilediff import cocycle
    from tilediff.models import builtin
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    built = []
    init = cocycle.FourierEvaluator.__init__

    def counting_init(self, model):
        built.append(model)
        init(self, model)

    monkeypatch.setattr(cocycle.FourierEvaluator, "__init__", counting_init)
    builtin.cache_clear()   # start from an unbuilt cap, whatever ran before
    for _ in range(2):
        code, _, _ = run(["peaks", "--model", "cap", "--radius", "0.3",
                          "--iters", "8"], capsys)
        assert code == 0
    assert built == [builtin("cap")]


def test_bad_data_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, _, err = run(["verify", "--model", "cap", "--data", str(bad)], capsys)
    assert code == 3
    assert "data error" in err
    bad.write_text(json.dumps({"field": "silver", "n": 2,
                               "entries": [[1, 2], [3, 4]]}))
    code, _, err = run(["peaks", "--model", "silver", "--data", str(bad)],
                       capsys)
    assert code == 3
    assert "data error" in err
    # a translation whose starred image overflows a float
    bad.write_text(json.dumps({"field": "silver", "n": 2, "entries": [
        [[[[0, 1], [0, 1]]], [[[0, 1], [0, 1]]]],
        [[[[0, 1], [1, 1]], [[10 ** 400, 1], [1, 1]]], [[[0, 1], [1, 1]]]]]}))
    code, _, err = run(["peaks", "--model", "silver", "--data", str(bad)],
                       capsys)
    assert code == 3
    assert "data error" in err and "starred" in err
    # a file that is not UTF-8
    bad.write_bytes(b"\xff\xfe\x00" + "{}".encode("utf-16-le"))
    code, _, err = run(["peaks", "--model", "cap", "--data", str(bad)], capsys)
    assert code == 3
    assert "data error" in err


@pytest.mark.parametrize("command", ["peaks", "patch", "window", "verify"])
def test_translation_beyond_int64_exit_code(command, tmp_path, capsys,
                                            monkeypatch):
    """A translation in Z[sqrt2] with a finite starred image, but generator
    coordinates past int64, is a data error that names its entry."""
    from tilediff.models import builtin, displacement_to_dict
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    data = displacement_to_dict(builtin("silver").displacement)
    data["entries"][1][0][1] = [[10 ** 22, 1], [0, 1]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    code, _, err = run([command, "--model", "silver", "--data", str(path)],
                       capsys)
    assert code == 3
    assert "data error" in err and "entry (1,0)" in err and "int64" in err
