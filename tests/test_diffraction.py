import gc
import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from tilediff import cocycle, diffraction, svg, windows
from tilediff.algebra import Surd
from tilediff.cps import (LatticeBasis, ModuleSet, enumerate_module,
                          float_arguments, module_point)
from tilediff.diffraction import (_group_matrix, _orbit_action,
                                  _orbit_representatives,
                                  amplitude_at, analytic_silver,
                                  deformation_from_lengths,
                                  mean_log_intensity, peak_list,
                                  peaks_to_csv, peaks_to_json, peaks_to_svg,
                                  periodicity_residual, symmetry_report,
                                  weight_vector, weyl_sum)
from tilediff.inflation import inflate, truncate
from tilediff.models import (DeformationMap, DisplacementMatrix,
                             ModelDataError, ModelSpec,
                             builtin, load_displacement, save_displacement,
                             sixfold_shift, validate_symmetry)
from test_inflation import _translated

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
    # the length error names the per-shape count only where there is one
    with pytest.raises(ValueError, match=r"length 24 \(or 4 per-shape weights\)$"):
        weight_vector(cap, [1, 2, 3])
    with pytest.raises(ValueError, match=r"must have length 2$"):
        weight_vector(silver, [1])
    with pytest.raises(ValueError):
        weight_vector(builtin("casper_scaffold"), "zero-central")


def test_weight_vector_rejects_overflowing_intensities(silver, cap):
    """(density sum |w_i|)^2 bounds every intensity; it must be finite."""
    for model, w in ((silver, [1e200, 1e200]), (cap, [1e308] * 4),
                     (silver, [float("nan"), 1]), (cap, [complex(1e154, 1e154)] * 24)):
        with pytest.raises(ValueError, match="too large or not finite"):
            weight_vector(model, w)
    assert np.array_equal(weight_vector(silver, [1e150, -1e150]), [1e150, -1e150])


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
    return inflate(silver, 12)


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
    shifted = _translated(silver_patch, t)
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


@pytest.mark.parametrize("measure", [math.nan, math.inf, 0.0, -1.0])
def test_weyl_rejects_bad_measure(silver_patch, measure):
    with pytest.raises(ValueError, match="region_measure"):
        weyl_sum(silver_patch, [0.5], np.ones(2), measure)


def test_weyl_rejects_wrong_dimension(silver_patch):
    with pytest.raises(ValueError, match=r"k_phys must have shape \(1,\)"):
        weyl_sum(silver_patch, [0.5, 0.0], np.ones(2), 1.0)


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


# -- exact amplitude classes -----------------------------------------------------

CAP_XI = [[1, 0, -1, 0], [0, 1, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
HAT_XI = [[1, 1], [-1, 0]]     # xi on the hat argument keys c @ L.T


def _own_class(points, *_):
    rows = np.arange(len(points))
    return points.coords, rows, np.zeros(len(points), dtype=bool)


def _points(coords):
    """Integer rows as a ModuleSet: without a deformation only their
    coordinates key the classes."""
    return ModuleSet(builtin("cap").lattice, np.asarray(coords), None, None)


def _full_sweep_peaks(monkeypatch, model, **kw):
    """peak_list with every point its own class, swept at k_int - D^T k_phys
    with no conjugation: the full-sweep oracle."""
    with monkeypatch.context() as m:
        m.setattr(diffraction, "_orbit_representatives", _own_class)
        m.setattr(LatticeBasis, "argument_lattice", lambda self, d: None)
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
    hat = cap.deformations["hat"]
    assert _orbit_action(cap, np.zeros(2), w, hat).tolist() == CAP_XI
    for spec in ("zero-central", (1, 2, 3, 4)):
        assert _orbit_action(cap, [0, 0], weight_vector(cap, spec),
                             None).tolist() == CAP_XI


@pytest.mark.parametrize("weights", ["equal", "zero-central"])
def test_hat_classes_on_module_match_argument_keys(cap, weights):
    """xi acting on module coordinates, keyed by L, gives the classes that X
    acting on the argument keys c @ L.T gives, array for array, with the
    representatives' module coordinates mapping to the key representatives."""
    hat = cap.deformations["hat"]
    w = weight_vector(cap, weights)
    R = _orbit_action(cap, np.zeros(2), w, hat)
    L, _ = cap.lattice.argument_lattice(hat)
    pts = enumerate_module(cap.lattice, [0, 0], 0.6, cap.internal_cutoff)
    got = _orbit_representatives(pts, R, True, hat)
    ref = _orbit_representatives(_points(pts.coords @ L.T), np.array(HAT_XI), True)
    assert R.tolist() == CAP_XI and len(got[0]) < len(pts) / 10
    got = (got[0] @ L.T,) + got[1:]
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _row_reps(keys, action, friedel=False):
    """Representative of each row, and its conjugation flag."""
    reps, inverse, conj = _orbit_representatives(_points(keys), action, friedel)
    return reps[inverse], conj


def test_orbit_representatives():
    R = np.array(CAP_XI, dtype=np.int64)
    eye = np.eye(4, dtype=np.int64)
    coords = np.random.default_rng(6).integers(-5, 6, size=(40, 4))
    reps, conj = _row_reps(coords, R)
    orbit = [coords]
    for _ in range(5):
        orbit.append(orbit[-1] @ R.T)
    for row, rep in enumerate(reps.tolist()):
        assert rep == min(o[row].tolist() for o in orbit)
    assert not conj.any()
    # the whole orbit shares its representative; the identity fixes all
    assert np.array_equal(_row_reps(orbit[3], R)[0], reps)
    assert np.array_equal(_row_reps(coords, eye)[0], coords)
    # -1 is R^3: Friedel's law adds nothing and conjugates no row
    friedel = _row_reps(coords, R, True)
    assert np.array_equal(friedel[0], reps) and not friedel[1].any()
    # with the identity, -1 pairs c with -c; the row that is not the
    # smaller of the two takes the conjugate
    reps, conj = _row_reps(coords, eye, True)
    for c, rep, flip in zip(coords.tolist(), reps.tolist(), conj):
        neg = [-x for x in c]
        assert rep == min(c, neg) and flip == (neg < c)
    # distinct representatives, in lexicographic order
    distinct = _orbit_representatives(_points(coords), eye, True)[0].tolist()
    assert distinct == sorted(map(list, set(map(tuple, reps.tolist()))))


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
    reps, conj = _row_reps(np.array([p.k.coords for p in got]),
                           np.array(CAP_XI, dtype=np.int64), True)
    assert not conj.any()
    amps = {}
    for rep, p in zip(map(tuple, reps.tolist()), got):
        amps.setdefault(rep, set()).add(p.amplitude)
    assert all(len(a) == 1 for a in amps.values())
    assert len(amps) < len(got) / 5


def _bits(z) -> list:
    """The (real, imag) bit patterns of complex values: -0.0 is not 0.0."""
    return list(map(tuple, np.asarray(z, dtype=complex).reshape(-1, 1)
                    .view(np.uint64).tolist()))


def _rows_swept(monkeypatch, model, **kw):
    """peak_list, the number of arguments its one sweep ran, and the group
    its class reduction took: (action, friedel, deformation)."""
    calls, groups = [], []
    sweep = cocycle.FourierEvaluator.amplitude_batch
    reduce = diffraction._orbit_representatives

    def spy(self, K, *args, **kwargs):
        calls.append(len(K))
        return sweep(self, K, *args, **kwargs)

    def group_spy(points, *group):
        groups.append(group)
        return reduce(points, *group)

    with monkeypatch.context() as m:
        m.setattr(cocycle.FourierEvaluator, "amplitude_batch", spy)
        m.setattr(diffraction, "_orbit_representatives", group_spy)
        peaks = peak_list(model, **kw)
    assert len(calls) == 1 and len(groups) == 1
    return peaks, calls[0], groups[0]


@pytest.mark.parametrize("name,radius,weights,deformation,swept", [
    ("silver", 20.0, "equal", None, 3395),
    ("silver", 20.0, "zero-central", "equal-lengths", 81),
    ("silver_twisted", 20.0, "equal", "equal-lengths", 81),
    ("cap", 0.6, "equal", None, 728),
    ("cap", 0.6, "zero-central", None, 728),
    ("cap", 0.6, (1, 2, 3, 4), None, 728),
    ("cap", 0.6, "equal", "hat", 129)])
def test_class_reduction_matches_full_sweep(monkeypatch, name, radius, weights,
                                            deformation, swept):
    """The class reduction against the full per-point sweep: the same rows
    in the same order, class members bitwise equal up to the stated
    conjugation, and Friedel pairs bitwise conjugate.

    Amplitudes are bitwise equal where only Friedel's law shares sweeps,
    and within 1e-14 of the brightest on sixfold orbits, whose
    representative's argument differs from a member's by rounding.  On
    argument keys the argument (c @ L.T) @ Q.T differs from
    k_int - D^T k_phys by rounding: at most 4 ulps of the largest term
    |B| |c| that the projections of c sum.  Each amplitude then differs
    by at most 2 pi rho density sum_i |w_i| v_i times that difference plus
    one such ulp (the representative's own rounding), and 1e-15 of the
    brightest for the sweep's rounding: every window lies within
    rho = default_cell_size(model, 0) of 0, so each window transform is
    2 pi rho H_i(0)-Lipschitz.
    """
    model = builtin(name)
    kw = dict(radius=radius, threshold=1e-6, weights=weights,
              deformation=deformation)
    got, rows, group = _rows_swept(monkeypatch, model, **kw)
    ref = _full_sweep_peaks(monkeypatch, model, **kw)
    assert rows == swept
    coords = np.array([p.k.coords for p in got])
    assert coords.tolist() == [list(p.k.coords) for p in ref]
    A = np.array([p.amplitude for p in got])
    A_ref = np.array([p.amplitude for p in ref])
    d = model.deformations.get(deformation)
    w = weight_vector(model, weights)
    A_max = np.max(np.abs(A_ref))
    if d is None:
        assert np.max(np.abs(A - A_ref)) <= 1e-14 * A_max
        if name != "cap":
            assert np.array_equal(A, A_ref)
    else:
        L, Q = model.lattice.argument_lattice(d)
        pts = model.lattice.points(coords)
        q, q_ref = (coords @ L.T) @ Q.T, float_arguments(pts, d)
        ulp = np.spacing(np.max(np.abs(coords) @ np.abs(model.lattice.dual_columns.T)))
        dq = np.linalg.norm(q - q_ref, axis=1)
        assert dq.max() <= 4 * ulp
        lipschitz = 2 * np.pi * windows.default_cell_size(model, 0) \
            * model.density * np.sum(np.abs(w) * model.evaluator.right)
        assert np.all(np.abs(A - A_ref) <= lipschitz * (dq + ulp) + 1e-15 * A_max)
    # class members carry one total, conjugated where the class says so
    action, friedel, group_d = group
    # real weights at centre 0, and every deformation here has a lattice
    assert friedel and group_d is d
    assert d is None or model.lattice.argument_lattice(d) is not None
    assert action.tolist() == (CAP_XI if name == "cap" else [[1, 0], [0, 1]])
    _, inverse, conj = _orbit_representatives(model.lattice.points(coords),
                                              action, friedel, d)
    keys = model.lattice.argument_keys(coords, d)
    total = np.where(conj, A.conj(), A)
    for c in np.unique(inverse):
        assert len(set(_bits(total[inverse == c]))) == 1
    # Friedel pairs: -k carries the conjugate of k's total, bitwise, unless
    # a non-conjugating element (xi^3 = -1 for cap) pairs them
    row = {c: i for i, c in enumerate(map(tuple, coords.tolist()))}
    pairs = [(i, row[tuple(-x for x in c)]) for c, i in row.items()
             if tuple(-x for x in c) in row and any(keys[i])]
    assert len(pairs) > len(got) / 2 or not keys.any()  # twisted: all at 0
    for i, j in pairs:
        expect = A[i] if conj[i] == conj[j] else A[i].conjugate()
        assert _bits(A[j]) == _bits(expect)
    assert not (name == "cap" and conj.any())


@pytest.mark.parametrize("name", ["silver", "silver_twisted"])
def test_amplitude_at_matches_peaks_bitwise(name):
    """One argument per point: ``amplitude_at`` sweeps at the argument the
    peak list swept its class at, so it gives every peak's amplitude bit
    for bit."""
    model = builtin(name)
    d = model.deformations["equal-lengths"]
    peaks = peak_list(model, radius=50.0, deformation=d, n=30)
    assert len(peaks) > 100
    assert _bits([amplitude_at(model, p.k, "equal", d, n=30) for p in peaks]) \
        == _bits([p.amplitude for p in peaks])


def test_amplitude_at_matches_hat_peaks(cap):
    """On the hat a sixfold representative's argument and the one-row sweep
    differ from a member's by rounding: within 1e-14 of the brightest."""
    d, n = cap.deformations["hat"], cap.default_iters
    peaks = peak_list(cap, radius=0.6, deformation=d, n=n)
    A = np.array([p.amplitude for p in peaks])
    got = np.array([amplitude_at(cap, p.k, "equal", d, n=n) for p in peaks])
    assert len(peaks) > 1000
    assert np.max(np.abs(got - A)) <= 1e-14 * np.max(np.abs(A))


def test_conjugated_zero_imaginary_part(monkeypatch, tmp_path):
    """The conjugate of an exact +0 imaginary part is -0: with real totals
    every conjugated row has imaginary part -0, which the CSV writes as
    ``-0``, and still equals the full sweep's +0."""
    sweep = cocycle.FourierEvaluator.amplitude_batch

    def real_sweep(self, *args, **kwargs):
        return sweep(self, *args, **kwargs).real + 0j

    silver = builtin("silver")
    with monkeypatch.context() as m:
        m.setattr(cocycle.FourierEvaluator, "amplitude_batch", real_sweep)
        got = peak_list(silver, radius=3.0, threshold=1e-6)
        ref = _full_sweep_peaks(monkeypatch, silver, radius=3.0,
                                threshold=1e-6)
    assert [p.k.coords for p in got] == [p.k.coords for p in ref]
    assert [p.amplitude for p in got] == [p.amplitude for p in ref]
    coords = np.array([p.k.coords for p in got])
    action = _orbit_action(silver, [0.0], weight_vector(silver, "equal"), None)
    conj = _orbit_representatives(silver.lattice.points(coords), action, True)[2]
    negative = np.signbit([p.amplitude.imag for p in got])
    assert conj.sum() > 10 and np.array_equal(negative, conj)
    assert not np.signbit([p.amplitude.imag for p in ref]).any()
    peaks_to_csv(got, tmp_path / "got.csv")
    im = [line.split(",")[7] for line in
          (tmp_path / "got.csv").read_text().splitlines()[1:]]
    assert im == ["-0" if c else "0" for c in conj]


def test_complex_weights_take_no_conjugate(cap, monkeypatch):
    """Friedel's law joins the group only for real weights at centre 0."""
    def friedel(center, weights):
        return _rows_swept(monkeypatch, cap, center=center, radius=0.3,
                           internal_cutoff=3.0, weights=weights)[2][1]

    assert not friedel([0, 0], [1 + 1j] * 4)
    assert friedel([0, 0], [1] * 4)
    assert not friedel([0.1, 0], [1] * 4)


def _assert_full_sweep_bitwise(model, peaks, center, radius, weights,
                               deformation=None):
    """Every peak carries the unpruned weighted sweep's total at its own
    argument, bitwise, and the product path's total w.C_n(k)v, normalized
    by C_n(0)v, to 1e-14 of the brightest amplitude.  The argument is
    ``ModuleSet.arguments``, (c @ L.T) @ Q.T for a deformation with an
    argument lattice."""
    n = model.default_iters
    pts = enumerate_module(model.lattice, center, radius, model.internal_cutoff)
    d = model.deformations.get(deformation, deformation)
    args, w = pts.arguments(d), weight_vector(model, weights)
    totals = model.evaluator.amplitude_batch(args, n, weights=w)
    coords = list(map(tuple, pts.coords.tolist()))
    full = dict(zip(coords, totals.tolist()))
    kept = {c for c, t in full.items() if abs(t) ** 2 >= 1e-6}
    assert {p.k.coords for p in peaks} == kept and len(kept) > 20
    assert all(p.amplitude == full[p.k.coords] for p in peaks)
    row = {c: i for i, c in enumerate(coords)}
    ev = model.evaluator
    Pv = ev.cocycle_limit_batch(np.vstack([
        np.zeros(model.dim), args[[row[p.k.coords] for p in peaks]]]), n) @ ev.right
    A = np.array([p.amplitude for p in peaks])
    A_ref = model.density * (Pv[1:] @ w) / Pv[0].sum()
    assert np.max(np.abs(A - A_ref)) <= 1e-14 * np.max(np.abs(A_ref))


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
                    (Surd(), Surd.rational(Fraction(1, 4)))))),
    # complex weights: no Friedel pairs either
    ("silver", (0.0,), 2.0, (1, 1j), None),
    ("silver", (0.0,), 2.0, (1, 1j), "equal-lengths")])
def test_trivial_orbit_matches_full_sweep_bitwise(name, center, radius,
                                                  weights, deformation):
    """No sixfold orbit: each peak is bitwise the unpruned sweep at its own
    argument, also where Friedel's law or an argument lattice shares one
    sweep between several points."""
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


def _sixfold_residual_per_sample(model, seed):
    """max |S^T B(k) S - B(xi k)| one sample at a time, as
    ``validate_symmetry`` computed it before its one batched call."""
    ev = model.evaluator
    perm = sixfold_shift(model.n_tiles)
    rot = model._scalar_matrix(model.field.gen("xi"))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        k = rng.uniform(-2.0, 2.0, size=2)
        lhs = ev.fourier_matrix_batch(k)[0][np.ix_(perm, perm)]
        rhs = ev.fourier_matrix_batch(rot @ k)[0]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@pytest.mark.parametrize("seed", [0, 1])
def test_validate_symmetry_batch_matches_per_sample_loop(cap, seed):
    draws = np.random.default_rng(seed)
    once = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(20, 2))
    assert np.array_equal(once, [draws.uniform(-2.0, 2.0, size=2)
                                 for _ in range(20)])
    rep = validate_symmetry(cap, seed=seed)
    ref = _sixfold_residual_per_sample(cap, seed)
    assert rep.n_sampled == 20
    assert rep.max_numeric_residual < 1e-12 and ref < 1e-12
    assert abs(rep.max_numeric_residual - ref) < 1e-13
    bad = _perturbed_cap()
    rep = validate_symmetry(bad, seed=seed)
    ref = _sixfold_residual_per_sample(bad, seed)
    assert rep.max_numeric_residual > 1e-3
    assert abs(rep.max_numeric_residual - ref) <= 1e-12 * ref


def _symmetry_report_dense(peaks, group):
    """The nearest peak to every image by a dense scan over all peaks, as
    ``symmetry_report`` matched them before its kx bisection: (max
    discrepancy, matched count, module coordinates of the unmatched)."""
    K, I = peaks.points.k_phys, peaks.intensity
    mapped = K @ _group_matrix(group).T
    idx = np.concatenate([
        np.argmin(np.linalg.norm(mapped[lo:lo + 512, None, :] - K[None],
                                 axis=2), axis=1)
        for lo in range(0, len(K), 512)])
    matched = np.linalg.norm(mapped - K[idx], axis=1) <= 1e-9
    worst = np.where(matched, np.abs(I - I[idx]), I).max()
    return (float(worst), int(matched.sum()),
            [tuple(c) for c in peaks.points.coords[~matched].tolist()])


@pytest.mark.parametrize("weights,threshold,deformation", [
    ("equal", 1e-6, None), ("zero-central", 1e-12, None),
    ("equal", 1e-9, "hat")])
def test_symmetry_report_matches_dense_scan(cap, weights, threshold,
                                            deformation):
    peaks = peak_list(cap, radius=0.6, threshold=threshold, weights=weights,
                      deformation=deformation, n=15)
    for group in ("rotation6", "mirror"):
        rep = symmetry_report(peaks, group)
        assert (rep.max_discrepancy, rep.n_matched,
                [p.k.coords for p in rep.unmatched]) == \
            _symmetry_report_dense(peaks, group)
        assert (len(rep.unmatched) > 0) == (group == "mirror")


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
    empty = peak_list(silver, center=[0.123], radius=0.0, internal_cutoff=1.0)
    assert isinstance(empty, diffraction.PeakTable) and len(empty) == 0


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


def test_periodicity_residual_needs_a_sample(silver):
    with pytest.raises(ValueError, match="n_samples"):
        periodicity_residual(silver, "equal-lengths", n_samples=0)


def test_twisted_decays_slower():
    a = mean_log_intensity(builtin("silver"), 50, 100, n=20)
    b = mean_log_intensity(builtin("silver_twisted"), 50, 100, n=20)
    assert b > a


def test_mean_log_intensity_rejects_empty_range():
    """[0.3001, 0.3002] holds no silver module point within the cutoff 30."""
    with pytest.raises(ValueError, match="no module point"):
        mean_log_intensity(builtin("silver"), 0.3001, 0.3002)


def test_mean_log_intensity_rejects_zero_factors():
    with pytest.raises(ValueError, match="at least one cocycle factor"):
        mean_log_intensity(builtin("silver"), 50, 100, n=0)


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


def _per_field_writers(peaks, csv_path, json_path):
    """The former writers, which formatted every field on its own and
    branched on ky per row: the reference for the one row format."""
    def g17(x):
        return format(float(x), ".17g")

    def json_str(s):
        return "null" if s is None else '"' + str(s) + '"'

    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("c1,c2,c3,c4,kx,ky,re_amp,im_amp,intensity,n_iters\n")
        for p in peaks:
            cs = [str(x) for x in p.k.coords] + [""] * (4 - len(p.k.coords))
            k = p.k.k_phys
            ky = k[1] if k.shape == (2,) else 0.0
            fh.write(",".join(cs + [g17(k[0]), g17(ky), g17(p.amplitude.real),
                                    g17(p.amplitude.imag), g17(p.intensity),
                                    str(p.n_iters)]) + "\n")
    rows = []
    for p in peaks:
        k = p.k.k_phys
        ky = k[1] if k.shape == (2,) else 0.0
        fields = [f'"coords":[{",".join(str(x) for x in p.k.coords)}]',
                  f'"deformation":{json_str(p.deformation)}',
                  f'"kx":{g17(k[0])}', f'"ky":{g17(ky)}',
                  f'"re_amp":{g17(p.amplitude.real)}',
                  f'"im_amp":{g17(p.amplitude.imag)}',
                  f'"intensity":{g17(p.intensity)}', f'"n_iters":{p.n_iters}']
        rows.append("{" + ",".join(fields) + "}")
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("[\n" + ",\n".join(rows) + "\n]\n")


@pytest.mark.parametrize("case", ["cap", "hat", "silver", "twisted", "empty",
                                  "negative-zero"])
def test_peak_rows_match_per_field_writers(tmp_path, cap, silver, cap_equal_peaks,
                                           case):
    """One %-format per row writes the bytes of the per-field writers: rank
    4 (cap), a deformation name (hat), rank 2 in 1d (silver), the empty
    list and an imaginary part of -0.0, written ``-0``."""
    if case == "cap":
        peaks = cap_equal_peaks
    elif case == "hat":
        peaks = peak_list(cap, radius=0.4, deformation="hat", n=15)
    elif case == "silver":
        peaks = peak_list(silver, radius=20.0, n=30)
    elif case == "twisted":
        peaks = peak_list(builtin("silver_twisted"), radius=20.0, n=30,
                          deformation="equal-lengths")
    elif case == "empty":
        peaks = cap_equal_peaks[:0]
    else:
        peaks = diffraction.PeakTable(silver.lattice.points([(1, 0)]), "lengths",
                                      30, np.array([complex(0.5, -0.0)]),
                                      np.array([0.25]))
    assert len(peaks) > 10 or case in ("empty", "negative-zero")
    peaks_to_csv(peaks, tmp_path / "new.csv")
    peaks_to_json(peaks, tmp_path / "new.json")
    _per_field_writers(peaks, tmp_path / "old.csv", tmp_path / "old.json")
    for ext in ("csv", "json"):
        assert (tmp_path / f"new.{ext}").read_bytes() == \
            (tmp_path / f"old.{ext}").read_bytes()
    if case == "negative-zero":
        assert repr(peaks[0].amplitude) == repr(next(iter(peaks)).amplitude) \
            == "(0.5-0j)"
        assert (tmp_path / "new.csv").read_text().splitlines()[1] == \
            "1,0,,,0.5,0,0.5,-0,0.25,30"
        assert '"im_amp":-0,' in (tmp_path / "new.json").read_text()


def _same_peak(p, q):
    """Field by field, bitwise, with the Python types the bench hashes."""
    assert p.k.lattice is q.k.lattice and p.k.coords == q.k.coords
    assert all(type(c) is int for c in p.k.coords)
    assert p.k.k_phys.tobytes() == q.k.k_phys.tobytes()
    assert p.k.k_int.tobytes() == q.k.k_int.tobytes()
    assert type(p.amplitude) is complex and repr(p.amplitude) == repr(q.amplitude)
    assert type(p.intensity) is float and p.intensity == q.intensity
    assert (p.deformation, p.n_iters) == (q.deformation, q.n_iters)


@pytest.mark.parametrize("case", ["cap", "hat", "silver"])
def test_peak_table_rows(cap, silver, cap_equal_peaks, case):
    """An int index (negative too) and iteration give the Peaks that the
    former row builder made from the kept points and the columns; a slice
    or index array gives a PeakTable, and the columns are read-only."""
    table = {"cap": cap_equal_peaks,
             "hat": lambda: peak_list(cap, radius=0.4, deformation="hat", n=15),
             "silver": lambda: peak_list(silver, radius=20.0, n=30)}[case]
    table = table if case == "cap" else table()
    assert isinstance(table, diffraction.PeakTable) and len(table) > 10
    expected = [diffraction.Peak(k, table.deformation, a, i, table.n_iters)
                for k, a, i in zip(table.points, table.amplitude.tolist(),
                                   table.intensity.tolist())]
    assert len(expected) == len(table)
    for got in (list(table), [table[i] for i in range(len(table))],
                [table[np.int64(i)] for i in range(len(table))],
                [table[i - len(table)] for i in range(len(table))]):
        for p, q in zip(got, expected, strict=True):
            _same_peak(p, q)
    for part, rows in ((table[3:9], expected[3:9]),
                       (table[np.array([5, 0, 2])], [expected[i] for i in (5, 0, 2)])):
        assert isinstance(part, diffraction.PeakTable)
        assert (part.deformation, part.n_iters) == (table.deformation, table.n_iters)
        for p, q in zip(part, rows, strict=True):
            _same_peak(p, q)
    with pytest.raises(ValueError):
        table.amplitude[0] = 0
    with pytest.raises(ValueError):
        table.intensity[0] = 0


def test_peak_row_semantics(cap_equal_peaks):
    """A Peak is an immutable row that compares and hashes on all five
    fields, its k on lattice and coords, as the frozen dataclass did: rebuilt
    from its fields it is equal, it never equals the plain tuple of its
    fields, and sets and dicts keyed by ``p.k`` behave as before."""
    table = cap_equal_peaks
    p = table[1]
    for name in ("k", "deformation", "amplitude", "intensity", "n_iters", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)
    k, fields = p.k, (p.k, p.deformation, p.amplitude, p.intensity, p.n_iters)
    twin = type(k)(k.lattice, k.coords, k.k_phys.copy(), k.k_int.copy())
    for same in (diffraction.Peak(*fields),
                 diffraction.Peak(k=twin, deformation=p.deformation,
                                  amplitude=p.amplitude, intensity=p.intensity,
                                  n_iters=p.n_iters)):
        assert same == p and not same != p and hash(same) == hash(p)
    assert hash(p) == hash(fields)
    for i, value in enumerate((table[2].k, "hat", p.amplitude + 1, p.intensity + 1,
                               p.n_iters + 1)):
        other = diffraction.Peak(*fields[:i], value, *fields[i + 1:])
        assert other != p and not other == p
    assert p != fields and fields != p and p != p.k
    with pytest.raises(TypeError):
        p < table[2]
    rows = list(table)
    by_k = {q.k: q for q in rows}
    assert len(by_k) == len({q.k for q in rows}) == len(table)
    assert by_k[twin] == p and twin in {q.k for q in rows}
    assert repr(p).startswith("Peak(k=ModulePoint(lattice=LatticeBasis(cap, rank=4), ")


def test_empty_peak_table_files(tmp_path, silver):
    """An empty table writes what the empty list wrote: the CSV header, an
    empty JSON array and the blank SVG."""
    empty = peak_list(silver, threshold=np.inf)
    assert isinstance(empty, diffraction.PeakTable) and len(empty) == 0
    assert list(empty) == []
    peaks_to_csv(empty, tmp_path / "e.csv")
    peaks_to_json(empty, tmp_path / "e.json")
    peaks_to_svg(empty, tmp_path / "e.svg")
    assert (tmp_path / "e.csv").read_bytes() == \
        b"c1,c2,c3,c4,kx,ky,re_amp,im_amp,intensity,n_iters\n"
    assert (tmp_path / "e.json").read_bytes() == b"[\n\n]\n"
    assert (tmp_path / "e.svg").read_bytes() == (
        b'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        b'viewBox="0 0 640 640">\n<rect width="100%" height="100%" '
        b'fill="#ffffff"/>\n\n</svg>\n')


def _per_circle(canvas, xs, ys, radii):
    """The former per-circle writer: each point mapped on its own, the
    radius clamped at 0."""
    f = svg._f
    out = []
    for x, y, r in zip(xs, ys, radii):
        px, py = canvas.map(x, y)
        out.append(f'<circle cx="{f(px)}" cy="{f(py)}" r="{f(max(r, 0.0))}" '
                   'fill="#111111"/>')
    return out


def test_svg_circles_match_per_circle_strings(tmp_path):
    """Mapping all points at once writes the strings of mapping each point
    on its own, radii that round to 0 included."""
    rng = np.random.default_rng(7)
    xs, ys = rng.normal(size=50), rng.uniform(-3, 1e-3, size=50)
    radii = rng.uniform(0, 9, size=50)
    radii[:3] = [0.0, 4e-7, 6e-7]
    canvas = svg.SvgCanvas((xs.min(), ys.min(), xs.max(), ys.max()))
    canvas.circles(xs, ys, radii)
    canvas.write(tmp_path / "c.svg")
    expected = _per_circle(canvas, xs, ys, radii)
    assert 'r="0" ' in expected[1] and 'r="0.000001" ' in expected[2]
    assert "\n".join(expected) in (tmp_path / "c.svg").read_text()


@pytest.mark.parametrize("seed", range(3))
def test_format_distinct_matches_per_value(seed):
    """Formatting each distinct bit pattern once and gathering gives the
    per-value strings of ``_f`` and %.17g, as nested lists of the input's
    shape: heavy repetition, both zeros (``-0`` and ``0``), both
    infinities, NaN and subnormals."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([rng.normal(scale=10.0 ** rng.integers(-8, 8, size=40)),
                           [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                            2.2250738585072e-308, -4e-7, 6e-7, 1.0, -1.0]])
    x = rng.choice(pool, size=(40, 25))
    for fmt in (svg._f, "%.17g".__mod__):
        for y in (x, x.T, x[0]):
            expected = np.vectorize(fmt, otypes=[object])(y).tolist()
            assert svg.format_distinct(y, fmt) == expected
        assert svg.format_distinct(np.broadcast_to(-0.0, 7), fmt) == [fmt(-0.0)] * 7
        assert svg.format_distinct(np.zeros(0), fmt) == []
    assert svg.format_distinct(np.array([0.0, -0.0, -1e-9, 0.0])) == ["0", "-0", "-0", "0"]
    assert svg.format_distinct(np.array([-0.0, 0.0]), "%.17g".__mod__) == ["-0", "0"]


def test_svg_rect_of_scalars():
    """Scalar arguments draw one rect; a height of -0.0 is written ``-0``."""
    canvas = svg.SvgCanvas((0, 0, 2, 2))
    canvas.rects(0.5, 0.25, 1.0, -0.0)
    assert canvas._parts == ['<rect x="170" y="545" width="300" height="-0" '
                             'fill="#000000"/>']


def test_svg_rects_take_a_color_column():
    """A color per rect fills each rect in order; a scalar color fills all."""
    canvas = svg.SvgCanvas((0, 0, 2, 2))
    canvas.rects(np.array([0.0, 1.0, 0.5]), 0.5, 0.5, np.array([0.5, 0.5, 1.0]),
                 color=np.array(["#aaaaaa", "#bbbbbb", "#aaaaaa"]), opacity=0.5)
    canvas.rects(np.array([0.0, 1.0]), 0.0, 0.25, 0.25, color="#cccccc")
    fills = [part.split('fill="')[1].split('"')[0] for part in canvas._parts]
    assert fills == ["#aaaaaa", "#bbbbbb", "#aaaaaa", "#cccccc", "#cccccc"]
    assert all('fill-opacity="0.5"' in part for part in canvas._parts[:3])
    assert canvas._parts[1] == ('<rect x="320" y="320" width="150" height="150" '
                                'fill="#bbbbbb" fill-opacity="0.5"/>')


class _PerValueCanvas(svg.SvgCanvas):
    """The former writer: every coordinate formatted on its own with ``_f``."""

    def circles(self, xs, ys, radii):
        f = svg._f
        px, py = self.map(xs, ys)
        self._parts += [f'<circle cx="{f(x)}" cy="{f(y)}" r="{f(r)}" fill="#111111"/>'
                        for x, y, r in zip(px.tolist(), py.tolist(), radii.tolist())]

    def rects(self, xs, ys, widths, heights, color="#000000", opacity=1.0):
        f = svg._f
        xs, ys, widths, heights, color = np.broadcast_arrays(
            xs, ys, widths, heights, color)
        px, py = self.map(xs, ys + heights)
        op = "" if opacity >= 1.0 else f' fill-opacity="{f(opacity)}"'
        self._parts += [f'<rect x="{f(x)}" y="{f(y)}" width="{f(w)}" '
                        f'height="{f(hh)}" fill="{c}"{op}/>'
                        for x, y, w, hh, c in zip(px.tolist(), py.tolist(),
                                                  (widths * self.scale).tolist(),
                                                  (heights * self.scale).tolist(),
                                                  color.tolist())]


@pytest.mark.parametrize("argv", [["window", "--model", "cap", "--resolution", "8"],
                                  ["window", "--model", "silver_twisted",
                                   "--zoom", "0,0.4"],
                                  ["peaks", "--model", "cap"]])
def test_cli_svgs_match_per_value_writer(tmp_path, monkeypatch, argv):
    """The window and peak SVGs of the CLI, whose canvases format each
    distinct value once, are the bytes of the per-value writer."""
    from tilediff.cli import main
    monkeypatch.setenv("TILEDIFF_OUTDIR", str(tmp_path))
    out = ["--out", "new.svg" if argv[0] == "window" else "new"]
    assert main(argv + out) == 0
    with monkeypatch.context() as m:
        for module in (windows, diffraction):
            m.setattr(module, "SvgCanvas", _PerValueCanvas)
        assert main(argv + ["--out", out[1].replace("new", "old")]) == 0
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()


def test_peak_fields_the_bench_reads(cap, silver):
    """perfbench/workloads.py hashes (coords, repr(amplitude)) through
    json.dumps: coords are tuples of Python ints, the amplitude a complex
    and the intensity a float."""
    for peaks in (peak_list(silver, radius=5.0, n=30),
                  peak_list(builtin("silver_twisted"), radius=5.0, n=30,
                            deformation="equal-lengths"),
                  peak_list(cap, radius=0.3, n=15, deformation="hat")):
        assert peaks
        for p in peaks:
            assert type(p.k.coords) is tuple
            assert all(type(c) is int for c in p.k.coords)
            assert type(p.amplitude) is complex and type(p.intensity) is float
        json.dumps([(p.k.coords, repr(p.amplitude)) for p in peaks])


def test_peak_svg(tmp_path, silver, cap_equal_peaks):
    """The columnar writer draws the bytes of the former per-peak one, in
    2d (cap) and 1d (silver, y = 0)."""
    for peaks in (cap_equal_peaks, peak_list(silver, radius=20.0, n=30)):
        out = tmp_path / "peaks.svg"
        peaks_to_svg(peaks, out)
        K = np.zeros((len(peaks), 2))
        K[:, :peaks[0].k.k_phys.size] = [p.k.k_phys for p in peaks]
        I = np.array([p.intensity for p in peaks])
        pad = 0.05 * max(float(np.ptp(K[:, 0])), float(np.ptp(K[:, 1])), 1e-9)
        canvas = svg.SvgCanvas((K[:, 0].min() - pad, K[:, 1].min() - pad,
                                K[:, 0].max() + pad, K[:, 1].max() + pad))
        canvas._parts = _per_circle(canvas, K[:, 0], K[:, 1],
                                    [9.0 * math.sqrt(i / I.max()) for i in I])
        canvas.write(tmp_path / "old.svg")
        assert out.read_bytes() == (tmp_path / "old.svg").read_bytes()
        assert out.read_text().count("<circle") == len(peaks)
    peaks_to_svg(cap_equal_peaks[:0], tmp_path / "empty.svg")
    assert (tmp_path / "empty.svg").read_text().startswith("<svg")


def test_chunk_sizes_agree(cap, monkeypatch):
    """The sweep is per argument: its row blocks change only BLAS rounding."""
    rng = np.random.default_rng(3)
    args = rng.uniform(-2, 2, size=(150, 2))
    ev = cap.evaluator
    w = weight_vector(cap, "equal")
    for kwargs in ({"weights": w}, {"weights": w, "floor": 1e-6}):
        ref = ev.amplitude_batch(args, 15, **kwargs)
        assert np.array_equal(ref, ev.amplitude_batch(args, 15, **kwargs))
        for chunk in (1, 37):
            with monkeypatch.context() as m:
                m.setattr(cocycle, "_CHUNK", chunk)
                H = ev.amplitude_batch(args, 15, **kwargs)
            assert H.shape == ref.shape
            assert np.max(np.abs(H - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert 0 < np.count_nonzero(ref) < len(ref)     # the floor dropped some
