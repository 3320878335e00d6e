"""Model verification suites: exact structure checks plus numeric probes.

Each check returns PASS, FAIL, or SKIP with a short detail string; the
suite composition depends on what the model documents and whether
displacement data is loaded.  Checks that need displacement data are
skipped (not failed) on the scaffold model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cps import LatticeBasis, float_arguments
from .diffraction import analytic_silver
from .models import ModelSpec, validate_symmetry

__all__ = ["Check", "verification_suite", "run_verification"]

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"

# Squared lattice covolumes of the built-in models (exact integers).
_GRAM_DETS = {"silver": Fraction(8), "cap": Fraction(135) ** 2,
              "spectre": Fraction(3645) ** 2}


@dataclass
class Check:
    name: str
    status: str
    detail: str = ""


def _check(name, ok, detail=""):
    return Check(name, PASS if ok else FAIL, detail)


def verification_suite(model: ModelSpec, seed: int = 0) -> list:
    checks = []
    f = model.field
    lat = model.lattice

    exact = all(
        f.inner(d, g) == Fraction(int(i == j))
        for i, d in enumerate(lat.dual_generators)
        for j, g in enumerate(lat.generators))
    checks.append(_check("lattice-duality", exact,
                         "dual basis is the exact transpose-inverse"))

    det_ok = lat.gram_det == _GRAM_DETS[f.name]
    checks.append(_check("lattice-covolume", det_ok,
                         f"|det B|^2 = {lat.gram_det} (covolume {lat.covolume:g})"))

    if model.window_volume is not None:
        vol = model.window_volume   # = density x covolume, compared squared
        checks.append(_check(
            "window-volume",
            vol * vol == lat.gram_det * model.density_sq.embed_phys_exact()[0],
            f"documented volume {float(vol):.12g} = density x covolume, exactly"))

    checks += _deformation_checks(model, seed)
    if model.name == "cap":
        checks.append(_fourier_module_check_cap(model))
    if f.name == "spectre":
        checks.append(_ht_constant_check(model))
        checks.append(_fourier_module_check_spectre(model))

    if not model.has_displacement:
        for name in ("fourier-at-zero", "pf-eigenvalue",
                     "amplitude-normalization", "rank1-residual"):
            checks.append(Check(name, SKIP, "displacement data not loaded"))
        return checks

    ev = model.evaluator
    B0 = ev.fourier_matrix_batch(np.zeros(model.dim))[0]
    checks.append(_check("fourier-at-zero",
                         float(np.max(np.abs(B0 - ev.M))) < 1e-12,
                         "B(0) equals the substitution matrix"))

    checks.append(Check("pf-eigenvalue", PASS,   # proved when the model was built
                        f"documented {ev.pf:.12g} is the PF root of det(xI - M) "
                        f"(degree {len(model.displacement.charpoly) - 1}), exactly"))

    av = ev.amplitudes(np.zeros(model.dim), n=max(30, model.default_iters))
    s = complex(av.H.sum())
    checks.append(_check("amplitude-normalization",
                         abs(s - model.density) < 1e-10,
                         f"sum H_i(0) = {s.real:.12g} vs density {model.density:.12g}"))

    rng = np.random.default_rng(seed)
    n_iters = 30  # the residual decays like the argument contraction per step
    worst = 0.0
    for _ in range(5):
        k = rng.uniform(-2.0, 2.0, size=model.dim)
        worst = max(worst, ev.amplitudes(k, n=n_iters).rank1_residual)
    checks.append(_check("rank1-residual", worst < 1e-8,
                         f"max sigma2/sigma1 = {worst:.3g} at n={n_iters}"))

    if model.name == "silver":
        checks.append(_analytic_oracle_check(ev))
    if model.orientations == 6:
        rep = validate_symmetry(model, seed=seed)
        checks.append(_check("sixfold-exact", not rep.exact_violations,
                             f"{len(rep.exact_violations)} violated entries"))
        checks.append(_check("sixfold-numeric",
                             rep.max_numeric_residual < 1e-12,
                             f"max residual {rep.max_numeric_residual:.3g}"))
    return checks


def _deformation_checks(model: ModelSpec, seed: int) -> list:
    """The derived periods lie in the deformation kernel in floats,
    |p_int - D^T p_phys| < 1e-10, which makes the deformed intensity
    lattice-periodic; and where the arguments form a lattice,
    ``ModuleSet.arguments`` ((c @ L.T) @ Q.T) matches the float formula
    k_int - D^T k_phys (``cps.float_arguments``) at 200 seeded points."""
    lat = model.lattice
    coords = np.random.default_rng(seed).integers(-10, 11, size=(200, lat.rank))
    pts, kernel, lattices, worst = lat.points(coords), [], [], 0.0
    for name, d in model.deformations.items():
        kernel.extend(np.linalg.norm(float_arguments(lat.periods(d), d), axis=1))
        if (lattice := lat.argument_lattice(d)) is not None:
            error = pts.arguments(d) - float_arguments(pts, d)
            worst = max(worst, float(np.max(np.abs(error))))
            lattices.append(f"{name}: L {'x'.join(map(str, lattice[0].shape))}")
    if not kernel:
        checks = [Check("deformation-periods", SKIP, "no deformation has periods")]
    else:
        checks = [_check("deformation-periods", max(kernel) < 1e-10,
                         "derived periods lie in the deformation kernel "
                         f"(max |p_int - D^T p_phys| {max(kernel):.3g})")]
    if lattices:
        checks.append(_check("deformed-argument-lattice", worst < 1e-10,
                             f"{', '.join(lattices)}; max float residual "
                             f"{worst:.3g} over 200 points"))
    return checks


def _fourier_module_check_cap(model: ModelSpec) -> Check:
    f = model.field
    tau, xi = f.gen("tau"), f.gen("xi")
    i15 = (2 * tau - 1) * (2 * xi - 1)
    pref = (1 + xi) * (tau - xi) * i15 / 45
    return _module_equality_check(model, [pref, pref * tau, pref * xi,
                                          pref * tau * xi])


def _fourier_module_check_spectre(model: ModelSpec) -> Check:
    f = model.field
    i5 = f.element([Fraction(4, 3), Fraction(-8, 3), Fraction(-1, 3),
                    Fraction(2, 3)])
    pref = i5 / 135
    gens = [pref * g for g in model.generators]
    return _module_equality_check(model, gens)


def _module_equality_check(model: ModelSpec, alt_gens) -> Check:
    """Dual module equals the documented prefactor module (both inclusions)."""
    dual = model.lattice.dual
    alt = LatticeBasis(alt_gens)
    ok = all(alt.integer_coords(g) is not None for g in dual.generators) and \
        all(dual.integer_coords(g) is not None for g in alt_gens)
    return _check("fourier-module-ideal", ok,
                  "dual module matches the documented prefactor form")


def _ht_constant_check(model: ModelSpec) -> Check:
    """Squared length of the shortest derived ht period, exactly and in
    floats."""
    f = model.field
    p = model.lattice.periods(model.deformations["ht"])[0].element
    sq = p * p.conj()
    expect = f.element([Fraction(5, 405), 0, Fraction(4, 405), 0])
    lam = 4.0 + math.sqrt(15.0)
    float_ok = abs(float(np.linalg.norm(p.embed_phys()))
                   - math.sqrt((4 * lam + 5) / 405)) < 1e-10
    return _check("ht-lattice-constant",
                  sq.coords == expect.coords and float_ok,
                  "period length sqrt((4*lam+5)/405), exact and numeric")


def _analytic_oracle_check(ev) -> Check:
    ks = np.linspace(-5.0, 5.0, 100)
    H = np.column_stack([ev.amplitude_batch(ks.reshape(-1, 1), n=30, weights=e)
                         for e in np.eye(ev.n)])
    ha, hb = analytic_silver(ks)
    err = float(np.max(np.abs(H - np.column_stack([ha, hb]))))
    return _check("analytic-oracle", err < 1e-8,
                  f"max |cocycle - closed form| = {err:.3g} at n=30")


def run_verification(model: ModelSpec, seed: int = 0):
    """Run the suite; returns (checks, ok)."""
    checks = verification_suite(model, seed=seed)
    ok = all(c.status != FAIL for c in checks)
    return checks, ok
