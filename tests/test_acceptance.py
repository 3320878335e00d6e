"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them on
success).  Criterion 10 reports SKIPPED unless a displacement data file
for the casper model is supplied via TILEDIFF_CASPR_DATA.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from tilediff.cocycle import FourierEvaluator
from tilediff.cps import module_point
from tilediff.diffraction import (amplitude_at, analytic_silver, peak_list,
                                  peaks_to_csv, periodicity_residual,
                                  symmetry_report, weyl_sum)
from tilediff.inflation import inflate
from tilediff.models import builtin, load_displacement, validate_symmetry
from tilediff.windows import (hull_intervals, iterate_windows, volume,
                              window_volume_from_patch)
from test_inflation import _translated

S2, S3, S5, S15 = (math.sqrt(x) for x in (2, 3, 5, 15))
LAM = 1 + S2
TAU = (1 + S5) / 2


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_c01_silver_oracle_equivalence():
    t0 = time.perf_counter()
    ev = builtin("silver").evaluator
    ks = np.linspace(-5.0, 5.0, 100)
    H = np.column_stack([ev.amplitude_batch(ks.reshape(-1, 1), n=30, weights=e)
                         for e in np.eye(ev.n)])
    ha, hb = analytic_silver(ks)
    err = float(np.max(np.abs(H - np.column_stack([ha, hb]))))
    dt = time.perf_counter() - t0
    report(1, "silver oracle equivalence", err < 1e-8 and dt < 1.0,
           f"max err {err:.3g}, runtime {dt:.2f}s")


def test_c02_central_intensities():
    silver = builtin("silver")
    k0 = module_point(silver.lattice, (0, 0))
    i_eq = abs(amplitude_at(silver, k0, "equal", n=30)) ** 2
    ok1 = abs(i_eq - LAM ** 2 / 8) < 1e-10
    i_zc = abs(amplitude_at(silver, k0, "zero-central", n=30)) ** 2
    ok2 = i_zc < 1e-20
    cap = builtin("cap")
    kc = module_point(cap.lattice, (0, 0, 0, 0))
    i_cap = abs(amplitude_at(cap, kc, "equal", n=15)) ** 2
    ok3 = abs(i_cap - 1.0 / (75 * TAU ** 4)) < 1e-9
    report(2, "central intensities", ok1 and ok2 and ok3,
           f"silver {i_eq:.12g} (lam^2/8 = {LAM**2/8:.12g}), "
           f"extinction {i_zc:.3g}, cap {i_cap:.12g}")


def test_c03_reprojected_silver():
    silver = builtin("silver")
    d = silver.deformations["equal-lengths"]
    worst_on = 0.0
    for m in (1, 2, -1, 4, -7):
        k = module_point(silver.lattice, (m, m))
        a = amplitude_at(silver, k, "equal", d, n=30)
        worst_on = max(worst_on, abs(a - (LAM + 1) / 4))
    rng = np.random.default_rng(17)
    worst_off = 0.0
    checked = 0
    while checked < 50:
        c = tuple(int(x) for x in rng.integers(-12, 13, size=2))
        if c[0] == c[1]:
            continue
        k = module_point(silver.lattice, c)
        worst_off = max(worst_off, abs(amplitude_at(silver, k, "equal", d, n=30)))
        checked += 1
    report(3, "reprojected silver", worst_on < 1e-8 and worst_off < 1e-8,
           f"on-lattice err {worst_on:.3g}, off-lattice max {worst_off:.3g}")


def test_c04_cap_structural():
    t0 = time.perf_counter()
    cap = builtin("cap")
    rep = validate_symmetry(cap)
    ok_exact = not rep.exact_violations
    ok_numeric = rep.max_numeric_residual < 1e-12
    ev = cap.evaluator
    B0 = ev.fourier_matrix_batch(np.zeros(2))[0]
    ok_b0 = float(np.max(np.abs(B0 - ev.M))) < 1e-12
    lam = float(np.max(np.abs(np.linalg.eigvals(ev.M.astype(float)))))
    ok_pf = abs(lam - TAU ** 4) < 1e-10
    dt = time.perf_counter() - t0
    report(4, "cap structural checks",
           ok_exact and ok_numeric and ok_b0 and ok_pf and dt < 5.0,
           f"exact sixfold {ok_exact}, numeric {rep.max_numeric_residual:.3g}, "
           f"B(0) integer {ok_b0}, PF err {abs(lam - TAU**4):.3g}, "
           f"runtime {dt:.2f}s")


def test_c05_rank_one_limit():
    rng = np.random.default_rng(23)
    results = []
    for name, n in (("silver", 30), ("silver_twisted", 30), ("cap", 15)):
        ev = builtin(name).evaluator
        worst = 0.0
        for _ in range(10):
            k = rng.uniform(-2.0, 2.0, size=ev.d)
            worst = max(worst, ev.amplitudes(k, n=n).rank1_residual)
        results.append((name, n, worst))
    ok = all(w < 1e-8 for _, _, w in results)
    report(5, "rank-1 limit", ok,
           "; ".join(f"{nm} n={n}: {w:.3g}" for nm, n, w in results))


def test_c06_hat_periodicity_and_chirality():
    cap = builtin("cap")
    resid_eq = periodicity_residual(cap, "hat", "equal", n_samples=50, n=30,
                                    seed=29)
    resid_zc = periodicity_residual(cap, "hat", "zero-central", n_samples=50,
                                    n=30, seed=31)
    ok_period = resid_eq < 1e-8 and resid_zc < 1e-8

    ok_six, ok_mirror = True, False
    for weights in ("equal", "zero-central"):
        peaks = peak_list(cap, radius=0.6, threshold=1e-12, weights=weights,
                          n=15)
        rep6 = symmetry_report(peaks, "rotation6")
        ok_six &= rep6.max_discrepancy < 1e-8 and not rep6.unmatched
        if weights == "zero-central":
            repm = symmetry_report(peaks, "mirror")
            ok_mirror = repm.max_discrepancy > 1e-4

    d = cap.deformations["hat"]
    _, Q = cap.lattice.argument_lattice(d)
    DT = d.matrix.T
    rng = np.random.default_rng(37)
    cols = cap.lattice.dual_columns
    worst = 0.0
    for _ in range(200):
        coords = rng.integers(-10, 11, size=4).astype(float)
        vec = cols @ coords
        arg = vec[2:] - DT @ vec[:2]
        c = np.linalg.solve(Q, arg)
        worst = max(worst, float(np.max(np.abs(c - np.round(c)))))
    ok_lattice = worst < 1e-10
    report(6, "hat periodicity and chirality",
           ok_period and ok_six and ok_mirror and ok_lattice,
           f"period resid {max(resid_eq, resid_zc):.3g}, sixfold {ok_six}, "
           f"mirror broken {ok_mirror}, argument-lattice resid {worst:.3g}")


def test_c07_windows():
    silver = builtin("silver")
    hulls = hull_intervals(silver)
    expect = [(S2 / 2 - 1, S2 / 2), (-1 - S2 / 2, S2 / 2 - 1)]
    err = max(abs(a - b) for h, e in zip(hulls, expect) for a, b in zip(h, e))
    ok_endpoints = err < 1e-8

    v_silver, _ = volume(iterate_windows(silver, 24))
    ok_silver = abs(v_silver - LAM) / LAM < 0.02
    # cell covers cannot converge for the Cantorval boundary (dimension
    # ~0.897), so the twisted total uses the patch-density identity
    v_twisted = window_volume_from_patch(builtin("silver_twisted"))
    ok_twisted = abs(v_twisted - LAM) / LAM < 0.02

    cap = builtin("cap")
    v_cap, bracket = volume(iterate_windows(cap, 12, resolution=8))
    mid = v_cap - bracket / 2
    ok_cap = abs(cap.lattice.density * mid - cap.density) / cap.density < 0.02
    report(7, "windows", ok_endpoints and ok_silver and ok_twisted and ok_cap,
           f"endpoint err {err:.3g}, silver vol {v_silver:.5f}, "
           f"twisted vol {v_twisted:.5f}, cap dens {cap.lattice.density*mid:.6g} "
           f"vs {cap.density:.6g}")


def test_c08_weyl_oracle():
    silver = builtin("silver")
    patch = inflate(silver, 12)
    pos = patch.positions_phys()[:, 0]
    measure = float(pos.max() - pos.min())
    w = np.ones(2)
    peaks = peak_list(silver, center=[2.5], radius=2.5, threshold=1e-3, n=30)
    strongest = [p for p in peaks if not p.k.is_origin()][:10]
    worst = 0.0
    for p in strongest:
        a_weyl = weyl_sum(patch, p.k.k_phys, w, measure)
        worst = max(worst, abs(a_weyl - p.amplitude) / abs(p.amplitude))
    ok_amp = worst < 0.05

    t = silver.field.element([3, 1])
    k = strongest[0].k
    a = weyl_sum(patch, k.k_phys, w, measure)
    b = weyl_sum(_translated(patch, t), k.k_phys, w, measure)
    phase = np.exp(-2j * np.pi * k.k_phys[0] * t.embed_phys()[0])
    cov = abs(b - phase * a)
    report(8, "weyl-sum oracle", ok_amp and cov < 1e-6,
           f"max rel amp err {worst:.3g} over 10 peaks, covariance {cov:.3g}")


def test_c09_spectre_exact_lattice():
    casper = builtin("casper_scaffold")
    ok_det = casper.lattice.gram_det == Fraction(3645) ** 2

    periods = casper.lattice.periods(casper.deformations["ht"])
    const = float(np.min(np.linalg.norm(periods.k_phys, axis=1)))
    lam = 4 + S15
    ok_const = abs(const - math.sqrt((4 * lam + 5) / 405)) < 1e-10

    expect = np.array([
        [-5 + 2 * S15, -10 + 2 * S15, -5 + 2 * S15, -5 + S15],
        [-5 * S3 + 2 * S5, 10 * S3 - 8 * S5, 5 * S3 - 4 * S5,
         -5 * S3 + 5 * S5]]) / 90.0
    err = float(np.max(np.abs(casper.lattice.dual_columns[:2, :] - expect)))
    ok_dual = err < 1e-10
    report(9, "spectre exact lattice identities",
           ok_det and ok_const and ok_dual,
           f"|det B|^2 == 3645^2: {ok_det}, lattice constant err "
           f"{abs(const - math.sqrt((4*lam+5)/405)):.3g}, dual display err {err:.3g}")


def test_c10_casper_conditional():
    path = os.environ.get("TILEDIFF_CASPR_DATA")
    if not path or not os.path.exists(path):
        print("ACCEPTANCE 10 casper displacement suite: SKIPPED "
              "(set TILEDIFF_CASPR_DATA to a displacement file)")
        pytest.skip("casper displacement data not supplied")
    casper = builtin("casper_scaffold").with_displacement(
        load_displacement(path))
    ev = FourierEvaluator(casper)
    k0 = np.zeros(2)
    i0 = abs(complex(ev.amplitudes(k0, n=15).H.sum())) ** 2
    ok_bright = abs(i0 - (31 - 8 * S15) / 972) < 1e-9
    resid = max(periodicity_residual(casper, name, "equal", n_samples=50, n=30)
                for name in ("hex", "ht"))
    ok_period = resid < 1e-8
    ok_dens = abs(casper.density - (4 * S3 - 3 * S5) / 54) < 1e-10
    report(10, "casper displacement suite", ok_bright and ok_period and ok_dens,
           f"I(0) {i0:.9g}, periodicity resid {resid:.3g}")


def test_c11_property_suite(tmp_path):
    # cocycle factorization identity
    ok_cocycle = True
    for name in ("silver_twisted", "cap"):
        ev = builtin(name).evaluator
        rng = np.random.default_rng(41)
        k = rng.uniform(-1.0, 1.0, size=ev.d)
        for mm in range(1, 6):
            for nn in range(1, 6):
                full = ev.cocycle_limit_batch(k, mm + nn)[0]
                left = ev.cocycle_limit_batch(k, mm)[0]
                k2 = np.atleast_1d(k) @ np.linalg.matrix_power(ev.contraction, mm)
                right = ev.cocycle_limit_batch(k2, nn)[0]
                ok_cocycle &= bool(np.max(np.abs(full - left @ right)) < 1e-10)

    # amplitude linearity in the weights
    silver = builtin("silver")
    k = module_point(silver.lattice, (2, -1))
    rng = np.random.default_rng(43)
    ok_linear = True
    for _ in range(5):
        w1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        w2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        s = amplitude_at(silver, k, w1 + w2, n=25)
        ok_linear &= abs(s - amplitude_at(silver, k, w1, n=25)
                         - amplitude_at(silver, k, w2, n=25)) < 1e-12

    # normalization: sum of amplitudes at zero equals the density
    ok_norm = True
    for name in ("silver", "silver_twisted", "cap"):
        m = builtin(name)
        ev = m.evaluator
        s = complex(ev.amplitudes(np.zeros(ev.d),
                                  n=max(30, m.default_iters)).H.sum())
        ok_norm &= abs(s - m.density) < 1e-10

    # byte-identical CSV on repeated runs
    p1 = peak_list(silver, radius=2.0, threshold=1e-4, n=30)
    p2 = peak_list(silver, radius=2.0, threshold=1e-4, n=30)
    f1, f2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    peaks_to_csv(p1, f1)
    peaks_to_csv(p2, f2)
    ok_bytes = f1.read_bytes() == f2.read_bytes()

    report(11, "property suite",
           ok_cocycle and ok_linear and ok_norm and ok_bytes,
           f"cocycle {ok_cocycle}, linearity {ok_linear}, "
           f"normalization {ok_norm}, determinism {ok_bytes}")
