import json
import warnings

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


@pytest.mark.parametrize("out", ["pk_silver", "pk_silver.csv", "pk_silver.json",
                                 "pk_silver.svg"])
def test_peaks_out_drops_one_suffix(out, tmp_path, capsys, monkeypatch):
    """--out pk.csv writes pk.csv, pk.json and pk.svg, as --out pk does."""
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    code, stdout, _ = run(["peaks", "--model", "silver", "--radius", "1",
                           "--out", out], capsys)
    assert code == 0 and "wrote pk_silver.csv/.json/.svg" in stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["pk_silver.csv", "pk_silver.json", "pk_silver.svg"]
    # only one suffix goes; the default names are unchanged
    code, _, _ = run(["peaks", "--model", "silver", "--radius", "1",
                      "--out", "pk.csv.csv"], capsys)
    assert code == 0 and (tmp_path / "pk.csv.csv").exists()
    code, _, _ = run(["peaks", "--model", "silver", "--radius", "1",
                      "--deformation", "equal-lengths"], capsys)
    assert code == 0 and (tmp_path / "peaks_silver_equal-lengths.json").exists()


def test_peaks_deformation_summary(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    code, out, _ = run(["peaks", "--model", "silver", "--deformation",
                        "equal-lengths", "--radius", "2", "--threshold",
                        "1e-4", "--iters", "25"], capsys)
    assert code == 0
    assert "lattice-periodic" in out
    assert "period generators" in out


def test_peaks_from_lengths_exact(tmp_path, capsys, monkeypatch):
    """from-lengths has its rows' periods and classes: the lengths of
    equal-lengths write the preset's CSV and period line, and D = 0
    (lengths sqrt2 and 1) has dense arguments and prints no period line."""
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    lines = {}
    for base, spec in [("preset", "equal-lengths"),
                       ("lengths", "from-lengths:4-2*sqrt2,4-2*sqrt2"),
                       ("zero", "from-lengths:sqrt2,1")]:
        code, out, _ = run(["peaks", "--model", "silver", "--deformation", spec,
                            "--radius", "1", "--threshold", "1e-4", "--iters",
                            "20", "--out", base], capsys)
        assert code == 0
        lines[base] = out.splitlines()
    assert (tmp_path / "lengths.csv").read_bytes() == \
        (tmp_path / "preset.csv").read_bytes()
    assert lines["lengths"][1:] == lines["preset"][1:]
    assert "period generators (0.853553391)" in lines["preset"][1]
    assert len(lines["zero"]) == 1


_Q = 5 * 10 ** 23 - 1


@pytest.mark.parametrize("argv, lo, hi", [
    # one period of length 2.5e11, whose float residual is rounding alone
    (["--model", "silver", "--radius", "2", "--deformation",
      f"from-lengths:2000000000000/{_Q}-2/{_Q}*sqrt2,"
      f"1000000000000000000000000/{_Q}-1000000000000/{_Q}*sqrt2"], 1e-5, 1e-4),
    (["--model", "cap", "--deformation", "hat"], 0.0, 1e-15),
])
def test_peaks_period_line_prints_rounding_scale(argv, lo, hi, tmp_path,
                                                 capsys, monkeypatch):
    """The period line prints eps ||D|| max|p| before the residual, and still
    ends in the residual, which the bench parses from the text after it."""
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    code, out, _ = run(["peaks"] + argv, capsys)
    line = out.splitlines()[1]
    assert code == 0 and line.startswith("intensity is lattice-periodic")
    head, resid = line.rsplit("max residual ", 1)
    scale = float(head.rsplit("rounding scale ", 1)[1].rstrip(", "))
    assert lo < scale < hi
    assert resid.endswith(")") and float(resid[:-1]) >= 0.0


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


@pytest.mark.parametrize("lengths", ["4--2*sqrt2,4-2*sqrt2", "4+-2*sqrt2,4-2*sqrt2",
                                     "4-2**sqrt2,4-2*sqrt2", "--1,1"])
def test_peaks_from_lengths_rejects_second_sign(lengths, tmp_path, capsys,
                                                monkeypatch):
    """A term has one sign and one ``*``: 4--2*sqrt2 is not read as
    4 - 2 sqrt2, nor 2**sqrt2 as 2 sqrt2."""
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    code, out, err = run(["peaks", "--model", "silver", "--radius", "2",
                          "--deformation", f"from-lengths:{lengths}"], capsys)
    assert code == 1 and "cannot parse length" in err
    assert not out and not any(tmp_path.iterdir())


def test_peaks_from_lengths_any_radicand(tmp_path, capsys, monkeypatch):
    """sqrt8 is 2 sqrt2, so 4-sqrt8 writes the files of 4-2*sqrt2; lengths in
    sqrt3 and sqrt6 that keep ell_a + sqrt2 ell_b = 2 sqrt2 give a member
    with dense arguments and no period line."""
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    outs = {}
    for base, lengths in [("plain", "4-2*sqrt2,4-2*sqrt2"),
                          ("sqrt8", "4-sqrt8,4-2*sqrt2"),
                          ("dense", "4-2*sqrt2+1/10*sqrt3,4-2*sqrt2-1/20*sqrt6")]:
        code, outs[base], err = run(["peaks", "--model", "silver", "--radius", "2",
                                     "--deformation", f"from-lengths:{lengths}",
                                     "--out", base], capsys)
        assert code == 0 and not err
    for ext in ("csv", "json", "svg"):
        assert (tmp_path / f"sqrt8.{ext}").read_bytes() == \
            (tmp_path / f"plain.{ext}").read_bytes()
    assert outs["sqrt8"] == outs["plain"].replace("plain", "sqrt8")
    assert "period generators" in outs["plain"]
    assert outs["dense"].startswith("633 peaks") and len(outs["dense"].splitlines()) == 1


def test_peaks_from_lengths_beyond_int64(tmp_path, capsys, monkeypatch):
    """D = (1 + 2t^2 + 2t sqrt2) / (1 - 2t^2) at t = -1e-30 has one period,
    with dual coordinates near 5e29: a usage error, not a traceback."""
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    q = 5 * 10 ** 59 - 1
    lengths = f"{2 * 10 ** 30}/{q}-2/{q}*sqrt2,{10 ** 60}/{q}-{10 ** 30}/{q}*sqrt2"
    code, out, err = run(["peaks", "--model", "silver", "--deformation",
                          f"from-lengths:{lengths}"], capsys)
    assert code == 1 and "leave int64" in err
    assert not out and not any(tmp_path.iterdir())


@pytest.mark.parametrize("e,extra,peaks", [
    (18, ["--center", "12.717514421272202", "--radius", "0.05",
          "--internal-cutoff", "1", "--threshold", "1e-9"], None),
    (18, ["--radius", "2"], None),
    (17, ["--radius", "2"], 619)])
def test_peaks_argument_keys_within_int64(e, extra, peaks, tmp_path, capsys,
                                          monkeypatch):
    """The same family at t = -10^-e has L = [[-1, 5*10^(e-1)]]: at e = 18
    the key of (12, 19) is 9.5e18, past int64, a usage error naming the
    deformation where the key used to wrap into a wrong peak; at e = 17 the
    keys fit."""
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    q = 5 * 10 ** (2 * e - 1) - 1
    lengths = f"{2 * 10 ** e}/{q}-2/{q}*sqrt2,{10 ** (2 * e)}/{q}-{10 ** e}/{q}*sqrt2"
    code, out, err = run(["peaks", "--model", "silver", *extra, "--deformation",
                          f"from-lengths:{lengths}"], capsys)
    if peaks is None:
        assert code == 1 and "'from-lengths'" in err and "past int64" in err
        assert not out and not any(tmp_path.iterdir())
    else:
        assert code == 0 and out.startswith(f"{peaks} peaks") and not err


@pytest.mark.parametrize("lengths,code", [
    ("6333631924-4478554081*sqrt2,4478554083-3166815962*sqrt2", 0),
    ("2623476242-1855077839*sqrt2,1855077841-1311738121*sqrt2", 1)])
def test_peaks_from_lengths_exact_sign(lengths, code, tmp_path, capsys,
                                       monkeypatch):
    """ell_b = X - Y sqrt2 with X^2 - 2Y^2 = +-1 is +-1/(X + Y sqrt2), 0.0
    in floats: only the exact sign tells the valid pair from the other."""
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    got, out, err = run(["peaks", "--model", "silver", "--radius", "2",
                         "--deformation", f"from-lengths:{lengths}"], capsys)
    assert got == code
    if code:
        assert "tile lengths must be positive" in err and not out
    else:
        assert "peaks with intensity" in out and not err


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
    # past the bound; cell indices would pass 2**53 at the first step
    (["window", "--model", "silver", "--resolution", "70", "--generations", "3"],
     "--resolution"),
    # intensities past the float range: inf, or NaN totals in the sweep
    (["peaks", "--model", "silver", "--weights", "1e200,1e200", "--radius", "3"],
     "--weights"),
    (["peaks", "--model", "cap", "--weights", "1e308,1e308,1e308,1e308"],
     "--weights"),
    # 2.0 ** -resolution overflows, or the cell size underflows to 0
    (["window", "--model", "cap", "--resolution", "1" + "0" * 400], "--resolution"),
    (["window", "--model", "silver", "--resolution", "1100"], "--resolution")])
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
    assert "sixfold-exact" in out
    line = next(s for s in out.splitlines() if "pf-eigenvalue" in s)
    assert "PASS" in line and line.endswith("exactly")


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


def test_wrong_pf_data_exit_code(tmp_path, capsys):
    """Silver data whose cardinality matrix [[1, 1], [1, 1]] has PF root 2,
    not 1 + sqrt2, is a data error that names the documented eigenvalue."""
    one, zero = [[1, 1], [0, 1]], [[0, 1], [0, 1]]
    path = tmp_path / "pf2.json"
    path.write_text(json.dumps({"field": "silver", "n": 2, "entries": [
        [[zero], [zero]], [[one], [one]]]}))
    code, out, err = run(["peaks", "--model", "silver", "--data", str(path)],
                         capsys)
    assert code == 3 and not out
    assert "data error" in err and "PF eigenvalue 1 + sqrt2" in err


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


# The exit-code contract (0 success, 1 usage error, 3 missing or malformed
# data) on edge inputs: each exits with its code and a message, and none
# prints a traceback or a warning.  DIR stands for an existing directory.
@pytest.mark.parametrize("argv,code,message", [
    # a centre or radius this large overflows the search box to inf
    (["peaks", "--model", "cap", "--radius", "1e308"], 1, "search box leaves int64"),
    (["peaks", "--model", "cap", "--center", "1e308,1e308"], 1,
     "search box leaves int64"),
    (["peaks", "--model", "silver", "--radius", "1e308"], 1, "search box leaves int64"),
    (["peaks", "--model", "silver", "--radius", "inf"], 1, "--radius"),
    (["peaks", "--model", "cap", "--center", "1e300,0"], 1, "search box leaves int64"),
    (["peaks", "--model", "silver", "--threshold", "-1"], 1, "--threshold"),
    (["peaks", "--model", "silver", "--threshold", "inf"], 1, "--threshold"),
    (["peaks", "--model", "silver", "--weights", "1e308,1e308"], 1, "--weights"),
    (["peaks", "--model", "silver", "--weights", "inf,1"], 1, "--weights"),
    (["peaks", "--model", "silver", "--deformation", "from-lengths:1,1"], 1,
     "lengths must satisfy"),
    (["peaks", "--model", "silver", "--deformation", "from-lengths:0,1"], 1,
     "lengths must satisfy"),
    (["peaks", "--model", "silver", "--deformation", "from-lengths:1/0,1"], 1,
     "cannot parse length"),
    (["peaks", "--model", "silver", "--data", "/dev/null"], 3, "invalid JSON"),
    (["peaks", "--model", "silver", "--data", "DIR"], 1, "i/o error"),
    (["peaks", "--model", "silver", "--radius", "1", "--out", "missing/dir/x"], 1,
     "i/o error"),
    (["window", "--model", "silver_twisted", "--zoom", "0.5,0.4"], 1, "--zoom"),
    (["window", "--model", "silver_twisted", "--zoom", "nan,1"], 1, "--zoom"),
    (["patch", "--model", "cap", "--steps", "9"], 1, "--steps"),
    (["peaks", "--model", "silver", "--radius", "0.5", "--iters", "1000"], 0, ""),
    (["peaks", "--model", "silver", "--internal-cutoff", "1e6"], 1, "candidates"),
    (["verify", "--model", "casper_scaffold"], 0, ""),
    (["peaks", "--model", "casper_scaffold"], 3, "needs displacement data")])
def test_exit_code_contract(argv, code, message, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    argv = [str(tmp_path) if a == "DIR" else a for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, _, err = run(argv, capsys)
    assert got == code
    assert message in err
    assert "Traceback" not in err and "Warning" not in err
    assert not caught
