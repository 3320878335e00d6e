import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from tilediff import diffraction
from tilediff.algebra import Surd
from tilediff.cps import enumerate_module, module_point
from tilediff.diffraction import (_amplitude_sweep, _orbit_action,
                                  _orbit_representatives, amplitude_at,
                                  analytic_silver, deformation_from_lengths,
                                  mean_log_intensity, peak_list,
                                  peaks_to_csv, peaks_to_json, peaks_to_svg,
                                  periodicity_residual, symmetry_report,
                                  weight_vector, weyl_sum)
from tilediff.inflation import inflate, seed_patch, truncate
from tilediff.models import (DeformationMap, DisplacementMatrix,
                             ModelDataError, ModelSpec,
                             builtin, load_displacement, save_displacement,
                             validate_symmetry)

S2, S3, S5 = math.sqrt(2), math.sqrt(3), math.sqrt(5)
LAM = 1 + S2
TAU = (1 + S5) / 2


@pytest.fixture(scope="module")
def silver():
    return builtin("silver")


@pytest.fixture(scope="module")
def cap():
    return builtin("cap")


# -- weights ---------------------------------------------------------------

def test_weight_vectors(silver, cap):
    assert np.allclose(weight_vector(silver, "equal"), [1, 1])
    assert np.allclose(weight_vector(silver, "zero-central"), [S2, -1])
    w = weight_vector(cap, "zero-central")
    assert w.shape == (24,)
    assert np.allclose(w[:6], 0) and np.allclose(w[12:18], TAU)
    assert np.allclose(w[18:], -1)
    # per-shape replication and full-length pass-through
    assert np.allclose(weight_vector(cap, [1, 2, 3, 4])[6:12], 2)
    assert np.allclose(weight_vector(cap, np.ones(24)), 1)
    with pytest.raises(ValueError):
        weight_vector(cap, [1, 2, 3])
    with pytest.raises(ValueError):
        weight_vector(builtin("casper_scaffold"), "zero-central")


# -- single amplitudes -------------------------------------------------------

def test_amplitude_at_center(silver):
    k0 = module_point(silver.lattice, (0, 0))
    a = amplitude_at(silver, k0, "equal", n=30)
    assert abs(a - (2 + S2) / 4) < 1e-12
    extinct = amplitude_at(silver, k0, "zero-central", n=30)
    assert abs(extinct) ** 2 < 1e-20


def test_amplitude_reprojected(silver):
    d = silver.deformations["equal-lengths"]
    for m in (1, -2, 5):
        k = module_point(silver.lattice, (m, m))
        a = amplitude_at(silver, k, "equal", d, n=30)
        assert abs(a - (LAM + 1) / 4) < 1e-8
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 50:
        c = tuple(int(x) for x in rng.integers(-10, 11, size=2))
        if c[0] == c[1]:
            continue
        k = module_point(silver.lattice, c)
        assert abs(amplitude_at(silver, k, "equal", d, n=30)) < 1e-8
        checked += 1


def test_amplitude_linearity(silver):
    rng = np.random.default_rng(4)
    k = module_point(silver.lattice, (3, -2))
    for _ in range(5):
        w1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        w2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        a = amplitude_at(silver, k, w1, n=25)
        b = amplitude_at(silver, k, w2, n=25)
        ab = amplitude_at(silver, k, w1 + w2, n=25)
        assert abs(ab - (a + b)) < 1e-12


# -- closed forms -------------------------------------------------------------

def test_analytic_silver_values():
    ha, hb = analytic_silver(0.0)
    assert abs(ha - S2 / 4) < 1e-15
    assert abs(hb - 0.5) < 1e-15
    for k in np.linspace(-3, 3, 10):
        ha, hb = analytic_silver(k)
        # equal weights: |H|^2 = lam^2/8 sinc^2(pi lam k)
        assert abs(abs(ha + hb) ** 2
                   - LAM ** 2 / 8 * np.sinc(LAM * k) ** 2) < 1e-12
        # general weights, three-term expansion with phase arg(a conj(b));
        # the |b|^2 coefficient 1/4 is forced by the central value lam^2/8
        a, b = S2, -1.0
        expanded = (abs(a) ** 2 / 8 * np.sinc(k) ** 2
                    + abs(b) ** 2 / 4 * np.sinc(k * (LAM - 1)) ** 2
                    + S2 / 4 * abs(a * b)
                    * math.cos(math.pi * k * LAM + math.pi)
                    * np.sinc(k) * np.sinc(k * (LAM - 1)))
        assert abs(abs(a * ha + b * hb) ** 2 - expanded) < 1e-12


# -- Weyl sums ---------------------------------------------------------------

@pytest.fixture(scope="module")
def silver_patch(silver):
    return inflate(seed_patch(silver), silver, 12)


def test_weyl_density(silver, silver_patch):
    pos = silver_patch.positions_phys()[:, 0]
    measure = pos.max() - pos.min()
    d = weyl_sum(silver_patch, [0.0], np.ones(2), measure)
    assert abs(d - (2 + S2) / 4) < 0.01 * (2 + S2) / 4


def test_weyl_matches_cocycle(silver, silver_patch):
    pos = silver_patch.positions_phys()[:, 0]
    measure = pos.max() - pos.min()
    k = module_point(silver.lattice, (1, 0))  # k = 1/2
    a_weyl = weyl_sum(silver_patch, k.k_phys, np.ones(2), measure)
    a_coc = amplitude_at(silver, k, "equal", n=30)
    assert abs(a_weyl - a_coc) / abs(a_coc) < 0.05


def test_weyl_translation_covariance(silver, silver_patch):
    pos = silver_patch.positions_phys()[:, 0]
    measure = pos.max() - pos.min()
    k = module_point(silver.lattice, (1, 0))
    t = silver.field.element([2, 1])
    shifted = silver_patch.translated(t)
    a = weyl_sum(silver_patch, k.k_phys, np.ones(2), measure)
    b = weyl_sum(shifted, k.k_phys, np.ones(2), measure)
    phase = np.exp(-2j * np.pi * k.k_phys[0] * t.embed_phys()[0])
    assert abs(b - phase * a) < 1e-6


def test_weyl_errors(silver_patch):
    with pytest.raises(ValueError):
        weyl_sum(silver_patch, [0.0], np.ones(2), 0.0)
    with pytest.raises(ValueError):
        weyl_sum(truncate(silver_patch, 0.5, center=[-1e6]), [0.0],
                 np.ones(2), 1.0)


# -- peak lists ---------------------------------------------------------------

def test_silver_peaks_match_analytic_oracle(silver):
    peaks = peak_list(silver, center=[2.5], radius=2.5, threshold=1e-3, n=30)
    got = {p.k.coords: p.intensity for p in peaks}
    oracle = {}
    for m in range(-300, 301):
        for n in range(-300, 301):
            k = m / 2 + n * S2 / 4
            ki = m / 2 - n * S2 / 4
            if 0 <= k <= 5 + 1e-9 and abs(ki) <= 30 + 1e-9:
                ha, hb = analytic_silver(ki)
                I = abs(ha + hb) ** 2
                if I >= 1e-3:
                    oracle[(m, n)] = I
    assert set(got) == set(oracle)
    for c, I in oracle.items():
        assert abs(got[c] - I) < 1e-9
    # deterministic ordering: descending intensity, then coords
    ints = [p.intensity for p in peaks]
    assert ints == sorted(ints, reverse=True)


def test_peak_invariants(silver):
    peaks = peak_list(silver, radius=2.0, threshold=1e-4, n=30)
    for p in peaks:
        assert abs(p.intensity - abs(p.amplitude) ** 2) <= 1e-14 * p.intensity
        assert p.n_iters == 30
        assert p.intensity >= 1e-4


def test_peak_threshold_validation(silver):
    with pytest.raises(ValueError):
        peak_list(silver, radius=1.0, threshold=0.0)
    with pytest.raises(ValueError, match="threshold"):
        peak_list(silver, radius=2.0, threshold=np.nan)


def test_evaluator_dies_with_its_model():
    silver = builtin("silver")      # shared for good; --data models are not
    model = silver.with_displacement(silver.displacement)
    ev = model.evaluator
    assert model.evaluator is ev
    alive = weakref.ref(model)
    del model, ev
    gc.collect()
    assert alive() is None


def test_peaks_scaffold_raises():
    with pytest.raises(ModelDataError):
        peak_list(builtin("casper_scaffold"), radius=0.1)


@pytest.fixture(scope="module")
def cap_equal_peaks(cap):
    return peak_list(cap, radius=0.6, threshold=1e-6, weights="equal", n=15)


def test_cap_brightest_and_second(cap, cap_equal_peaks):
    peaks = cap_equal_peaks
    assert peaks[0].k.is_origin()
    assert abs(peaks[0].intensity - 1 / (75 * TAU ** 4)) < 1e-9
    rest = [p for p in peaks if not p.k.is_origin()]
    top = [p for p in rest if abs(p.intensity - rest[0].intensity) < 1e-12]
    assert len(top) == 6  # a full orbit under the sixfold rotation
    target = np.array([S5 / 30, S3 * (5 + 2 * S5) / 30])
    assert any(np.linalg.norm(p.k.k_phys - target) < 1e-9 for p in top)


def test_cap_central_extinction(cap):
    k0 = module_point(cap.lattice, (0, 0, 0, 0))
    a = amplitude_at(cap, k0, "zero-central", n=15)
    assert abs(a) ** 2 < 1e-12


def test_cap_symmetries(cap, cap_equal_peaks):
    rep = symmetry_report(cap_equal_peaks, "rotation6")
    assert rep.max_discrepancy < 1e-8
    assert not rep.unmatched
    # chirality: mirror symmetry broken for the extinction weights
    peaks = peak_list(cap, radius=0.6, threshold=1e-12,
                      weights="zero-central", n=15)
    rep6 = symmetry_report(peaks, "rotation6")
    assert rep6.max_discrepancy < 1e-8
    repm = symmetry_report(peaks, "mirror")
    assert repm.max_discrepancy > 1e-4


@pytest.mark.parametrize("deformation", [None, "hat"])
def test_tied_peaks_ordered_by_coords(cap, cap_equal_peaks, deformation):
    """Orbit-equivalent peaks, whose intensities agree up to rounding,
    come out in module-coordinate order, not in rounding-noise order."""
    peaks = cap_equal_peaks if deformation is None else peak_list(
        cap, radius=0.6, threshold=1e-6, deformation=deformation, n=15)
    tied = 0
    for a, b in zip(peaks, peaks[1:]):
        gap = a.intensity - b.intensity
        if abs(gap) <= 1e-12 * a.intensity:
            tied += 1
            assert a.k.coords < b.k.coords
        else:
            # distinct intensities descend, far from the tie tolerance
            assert gap > 1e-9 * a.intensity
    assert tied > 300


def _list_sort(peaks):
    """Oracle for the peak order: the list-based sort from enumeration
    (coordinate) order, a stable sort by descending intensity, then the
    1e-12 tie groups ordered by coordinates."""
    peaks = sorted(peaks, key=lambda pk: pk.k.coords)
    peaks.sort(key=lambda pk: -pk.intensity)
    I = np.array([pk.intensity for pk in peaks])
    group = np.cumsum(np.concatenate([[0], I[:-1] - I[1:] > 1e-12 * I[:-1]]))
    return [pk for _, pk in sorted(zip(group.tolist(), peaks),
                                   key=lambda gp: (gp[0], gp[1].k.coords))]


@pytest.mark.parametrize("name,deformation", [("cap", None), ("cap", "hat"),
                                              ("silver", None)])
def test_peak_order_matches_list_sort(cap_equal_peaks, name, deformation):
    if name == "cap" and deformation is None:
        peaks = cap_equal_peaks
    else:
        peaks = peak_list(builtin(name), radius=0.6 if name == "cap" else 10.0,
                          threshold=1e-6, deformation=deformation)
    assert len(peaks) > 100
    assert [p.k.coords for p in peaks] == [p.k.coords for p in _list_sort(peaks)]


# -- sixfold orbit reduction ---------------------------------------------------

CAP_XI = [[1, 0, -1, 0], [0, 1, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]


def _identity_action(model, *_):
    return np.eye(model.lattice.rank, dtype=np.int64)


def _full_sweep_peaks(monkeypatch, model, **kw):
    """peak_list with every point its own orbit: the full-sweep oracle."""
    with monkeypatch.context() as m:
        m.setattr(diffraction, "_orbit_action", _identity_action)
        return peak_list(model, **kw)


def _cap_variant(disp=None, antilinear=False):
    """cap with another displacement or expansion action, unchecked."""
    m = builtin("cap")
    return ModelSpec(m.name, m.field, m.tile_labels, m.generators, m.expansion,
                     antilinear, m.pf_eigenvalue, disp or m.displacement,
                     m.density_sq, m.window_volume, m.fourier_module_doc,
                     m.deformations, m.orientations, m.internal_cutoff,
                     m.default_iters)


def _perturbed_cap(delta=None):
    """cap with one translation moved by ``delta`` (default 1, which
    leaves the return module; a generator keeps it, as --data needs)."""
    m = builtin("cap")
    entries = [list(row) for row in m.displacement.entries]
    i, j = next((i, j) for i in range(24) for j in range(24) if entries[i][j])
    cell = list(entries[i][j])
    cell[0] = cell[0] + (m.field.one() if delta is None else delta)
    entries[i][j] = tuple(cell)
    disp = DisplacementMatrix(m.field, entries)
    return _cap_variant(disp) if delta is None else m.with_displacement(disp)


def test_cap_orbit_action_multiplies_by_xi(cap):
    w = weight_vector(cap, "equal")
    R = _orbit_action(cap, np.zeros(2), w, None)
    assert R.dtype == np.int64 and R.tolist() == CAP_XI
    eye = np.eye(4, dtype=np.int64)
    powers = [np.linalg.matrix_power(R, e) for e in range(1, 7)]
    assert np.array_equal(powers[-1], eye)
    assert not any(np.array_equal(P, eye) for P in powers[:-1])
    # the action is xi on the module: k_phys turns by +60 degrees, k_int by -60
    coords = np.random.default_rng(5).integers(-9, 10, size=(50, 4))
    pts, rot = cap.lattice.points(coords), cap.lattice.points(coords @ R.T)
    c, s = 0.5, S3 / 2
    assert np.allclose(rot.k_phys, pts.k_phys @ np.array([[c, s], [-s, c]]))
    assert np.allclose(rot.k_int, pts.k_int @ np.array([[c, -s], [s, c]]))
    # hat commutes with xi exactly; per-shape and zero-central weights too
    assert _orbit_action(cap, np.zeros(2), w, cap.deformations["hat"]).tolist() \
        == CAP_XI
    for spec in ("zero-central", (1, 2, 3, 4)):
        assert _orbit_action(cap, [0, 0], weight_vector(cap, spec),
                             None).tolist() == CAP_XI


def test_orbit_representatives():
    R = np.array(CAP_XI, dtype=np.int64)
    coords = np.random.default_rng(6).integers(-5, 6, size=(40, 4))
    reps = _orbit_representatives(coords, R)
    orbit = [coords]
    for _ in range(5):
        orbit.append(orbit[-1] @ R.T)
    for row, rep in enumerate(reps.tolist()):
        assert rep == min(o[row].tolist() for o in orbit)
    # the whole orbit shares its representative; the identity fixes all
    assert np.array_equal(_orbit_representatives(orbit[3], R), reps)
    assert np.array_equal(_orbit_representatives(coords, np.eye(4, dtype=np.int64)),
                          coords)


@pytest.mark.parametrize("weights,deformation,rel_intensity", [
    ("equal", None, 1e-13), ("zero-central", None, 1e-13),
    ((1, 2, 3, 4), None, None), ("equal", "hat", 1e-13)])
def test_orbit_reduction_matches_full_sweep(cap, monkeypatch, weights,
                                            deformation, rel_intensity):
    kw = dict(radius=0.6, threshold=1e-6, weights=weights,
              deformation=deformation, n=15)
    got = peak_list(cap, **kw)
    ref = _full_sweep_peaks(monkeypatch, cap, **kw)
    assert [p.k.coords for p in got] == [p.k.coords for p in ref]
    A = np.array([p.amplitude for p in got])
    A_ref = np.array([p.amplitude for p in ref])
    # the representative's argument differs from a member's by rounding:
    # an error of a few ulps of the brightest amplitude
    assert np.max(np.abs(A - A_ref)) <= 1e-14 * np.max(np.abs(A_ref))
    if rel_intensity is not None:   # per-shape weights reach 1.6e-13 at I ~ 1e-6
        I = np.array([p.intensity for p in got])
        I_ref = np.array([p.intensity for p in ref])
        assert np.max(np.abs(I - I_ref) / I_ref) <= rel_intensity
    # orbit members carry their representative's total, bitwise
    reps = _orbit_representatives(np.array([p.k.coords for p in got]),
                                  np.array(CAP_XI, dtype=np.int64))
    amps = {}
    for rep, p in zip(map(tuple, reps.tolist()), got):
        amps.setdefault(rep, set()).add(p.amplitude)
    assert all(len(a) == 1 for a in amps.values())
    assert len(amps) < len(got) / 5


def _assert_full_sweep_bitwise(model, peaks, center, radius, weights,
                               deformation=None):
    """Every peak carries the full sweep's total at its own argument."""
    n = model.default_iters
    pts = enumerate_module(model.lattice, center, radius, model.internal_cutoff)
    d = model.deformations.get(deformation, deformation)
    totals = _amplitude_sweep(model.evaluator, pts.arguments(d), n) \
        @ weight_vector(model, weights)
    full = dict(zip(map(tuple, pts.coords.tolist()), totals.tolist()))
    kept = {c for c, t in full.items() if abs(t) ** 2 >= 1e-6}
    assert {p.k.coords for p in peaks} == kept and len(kept) > 20
    assert all(p.amplitude == full[p.k.coords] for p in peaks)


@pytest.mark.parametrize("name,center,radius,weights,deformation", [
    ("cap", (0.01, 0.0), 0.4, "equal", None),
    ("cap", (0.0, 0.0), 0.4, tuple(range(1, 25)), None),
    ("silver", (0.0,), 2.0, "equal", None),
    ("silver", (0.0,), 2.0, "zero-central", "equal-lengths"),
    ("silver_twisted", (0.0,), 2.0, "equal", None),
    ("perturbed", (0.0, 0.0), 0.4, "equal", None),
    ("antilinear", (0.0, 0.0), 0.4, "equal", None),
    # D = 1/4: linear, so D^T xi_phys = xi_phys D^T != xi_int D^T
    ("cap", (0.0, 0.0), 0.4, "equal", DeformationMap(
        "quarter", ((Surd.rational(Fraction(1, 4)), Surd()),
                    (Surd(), Surd.rational(Fraction(1, 4))))))])
def test_trivial_orbit_matches_full_sweep_bitwise(name, center, radius,
                                                  weights, deformation):
    model = {"perturbed": _perturbed_cap,
             "antilinear": lambda: _cap_variant(antilinear=True)}.get(
                 name, lambda: builtin(name))()
    w = weight_vector(model, weights)
    d = model.deformations.get(deformation, deformation)
    assert np.array_equal(_orbit_action(model, np.array(center), w, d),
                          np.eye(model.lattice.rank))
    peaks = peak_list(model, center=center, radius=radius, threshold=1e-6,
                      weights=weights, deformation=deformation)
    _assert_full_sweep_bitwise(model, peaks, center, radius, weights,
                               deformation)


def test_reduction_never_manufactures_symmetry():
    bad = _perturbed_cap()
    assert bad.displacement.sixfold_violations == \
        tuple(validate_symmetry(bad).exact_violations) != ()
    rep = symmetry_report(peak_list(bad, radius=0.6, threshold=1e-6),
                          "rotation6")
    assert rep.max_discrepancy > 1e-6 and rep.unmatched and not rep.ok


def test_orbit_action_checks_data_displacements(cap, tmp_path):
    """A displacement loaded from a file is checked like the packaged one."""
    w = weight_vector(cap, "equal")
    path = tmp_path / "cap.json"
    save_displacement(cap.displacement, path)
    loaded = cap.with_displacement(load_displacement(path))
    assert _orbit_action(loaded, np.zeros(2), w, None).tolist() == CAP_XI
    save_displacement(_perturbed_cap(cap.generators[0]).displacement, path)
    moved = cap.with_displacement(load_displacement(path))
    assert moved.displacement.sixfold_violations
    assert np.array_equal(_orbit_action(moved, np.zeros(2), w, None),
                          np.eye(4))


def test_peak_list_empty_enumeration(silver):
    assert len(enumerate_module(silver.lattice, [0.123], 0.0, 1.0)) == 0
    assert peak_list(silver, center=[0.123], radius=0.0, internal_cutoff=1.0) == []


def test_symmetry_report_empty():
    rep = symmetry_report([], "rotation6")
    assert rep.max_discrepancy == 0.0 and rep.n_matched == 0
    with pytest.raises(ValueError):
        symmetry_report([], "octagonal")


def test_symmetry_report_rejects_1d_peaks(silver):
    peaks = peak_list(silver, radius=1.0, threshold=1e-3, n=20)
    with pytest.raises(ValueError, match="planar"):
        symmetry_report(peaks, "mirror")


def test_peak_list_consistent_with_enumeration(cap):
    """Every peak is an enumerated Bragg candidate, and the threshold is
    the only filter between the two."""
    pts = enumerate_module(cap.lattice, np.zeros(2), 0.3,
                           internal_cutoff=cap.internal_cutoff)
    peaks = peak_list(cap, radius=0.3, threshold=1e-6, n=15)
    candidate_coords = {p.coords for p in pts}
    assert len(peaks) <= len(pts)
    assert all(p.k.coords in candidate_coords for p in peaks)


# -- deformations ------------------------------------------------------------

def test_deformation_from_lengths_equal():
    ell = Surd({1: 4, 2: -2})  # 4 - 2 sqrt2
    d = deformation_from_lengths(ell, ell)
    assert d.rows[0][0] == Surd({1: 3, 2: -2})  # lam^-2 = 3 - 2 sqrt2
    assert np.allclose(d.matrix, [[3 - 2 * S2]])


def test_deformation_from_lengths_natural():
    d = deformation_from_lengths(Surd.root(2), Surd.rational(1))
    assert not d.rows[0][0]  # D = 0, the undeformed projection
    assert np.allclose(d.matrix, [[0.0]])


def test_deformation_from_lengths_rejects():
    with pytest.raises(ValueError, match="exactly"):
        deformation_from_lengths(Surd.rational(1), Surd.rational(1))
    with pytest.raises(ValueError, match="positive"):
        deformation_from_lengths(Surd.root(2, 2), Surd.rational(0))


# -- periodicity and decay ----------------------------------------------------

def test_hat_periodicity(cap):
    for weights in ("equal", "zero-central"):
        resid = periodicity_residual(cap, "hat", weights, n_samples=50, n=30)
        assert resid < 1e-8


def test_silver_reprojection_periodicity(silver):
    resid = periodicity_residual(silver, "equal-lengths", "equal",
                                 n_samples=50, n=30)
    assert resid < 1e-8


def test_twisted_decays_slower():
    a = mean_log_intensity(builtin("silver"), 50, 100, n=20)
    b = mean_log_intensity(builtin("silver_twisted"), 50, 100, n=20)
    assert b > a


def test_mean_log_intensity_rejects_empty_range():
    with pytest.raises(ValueError, match="no module point"):
        mean_log_intensity(builtin("silver"), 0.3001, 0.3002, internal_cutoff=0.1)


# -- output files --------------------------------------------------------------

def test_peak_outputs_deterministic(tmp_path, silver):
    peaks = peak_list(silver, radius=1.5, threshold=1e-4, n=30)
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    peaks_to_csv(peaks, c1)
    peaks_to_json(peaks, j1)
    peaks2 = peak_list(silver, radius=1.5, threshold=1e-4, n=30)
    peaks_to_csv(peaks2, c2)
    peaks_to_json(peaks2, j2)
    assert c1.read_bytes() == c2.read_bytes()
    assert j1.read_bytes() == j2.read_bytes()
    header = c1.read_text().splitlines()[0]
    assert header == "c1,c2,c3,c4,kx,ky,re_amp,im_amp,intensity,n_iters"
    # rank-2 module: c3,c4 empty
    row = c1.read_text().splitlines()[1].split(",")
    assert row[2] == "" and row[3] == ""
    import json as _json
    rows = _json.loads(j1.read_text())
    assert len(rows) == len(peaks)
    assert abs(rows[0]["intensity"] - peaks[0].intensity) < 1e-17


def test_peak_svg(tmp_path, cap, cap_equal_peaks):
    out = tmp_path / "peaks.svg"
    peaks_to_svg(cap_equal_peaks, out)
    text = out.read_text()
    assert text.count("<circle") == len(cap_equal_peaks)
    peaks_to_svg([], tmp_path / "empty.svg")
    assert (tmp_path / "empty.svg").read_text().startswith("<svg")


def test_chunk_sizes_agree(cap):
    """The sweep is per argument: chunking changes only BLAS rounding."""
    rng = np.random.default_rng(3)
    args = rng.uniform(-2, 2, size=(150, 2))
    ev = cap.evaluator
    ref = _amplitude_sweep(ev, args, 15)
    assert np.array_equal(ref, _amplitude_sweep(ev, args, 15))
    for chunk in (1, 37):
        H = _amplitude_sweep(ev, args, 15, chunk=chunk)
        assert np.max(np.abs(H - ref)) <= 1e-15 * np.max(np.abs(ref))
