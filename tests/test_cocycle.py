import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from tilediff.cocycle import FourierEvaluator
from tilediff.cps import enumerate_module, internal_argument
from tilediff.diffraction import analytic_silver, peak_list, weight_vector
from tilediff.models import ModelDataError, ModelSpec, builtin
from tilediff.verify import run_verification

S2 = math.sqrt(2)
LAM = 1 + S2
TAU = (1 + math.sqrt(5)) / 2


def _per_type(ev, K, n):
    """H_i(k): the weighted totals at unit weights, one sweep per type."""
    return np.column_stack([ev.amplitude_batch(K, n, weights=e)
                            for e in np.eye(ev.n)])


@pytest.fixture(scope="module")
def ev_silver():
    return FourierEvaluator(builtin("silver"))


@pytest.fixture(scope="module")
def ev_twisted():
    return FourierEvaluator(builtin("silver_twisted"))


@pytest.fixture(scope="module")
def ev_cap():
    return FourierEvaluator(builtin("cap"))


def test_fourier_matrix_at_zero_is_substitution_matrix(ev_twisted, ev_cap):
    for ev in (ev_twisted, ev_cap):
        B0 = ev.fourier_matrix_batch(np.zeros(ev.d))[0]
        assert np.max(np.abs(B0 - ev.M)) < 1e-12


def test_twisted_fourier_matrix_closed_form(ev_twisted):
    for k in (0.3, -1.7, 0.05):
        B = ev_twisted.fourier_matrix_batch(k)[0]
        expect = np.array([
            [np.exp(4j * np.pi * k), 1.0],
            [1 + np.exp(2j * np.pi * k), np.exp(-2j * np.pi * k * S2)]])
        assert np.max(np.abs(B - expect)) < 1e-14


def test_cap_sixfold_fourier_identity(ev_cap):
    perm = np.array([(i // 6) * 6 + (i % 6 + 1) % 6 for i in range(24)])
    rot = np.array([[0.5, -math.sqrt(3) / 2], [math.sqrt(3) / 2, 0.5]])
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = rng.uniform(-2, 2, size=2)
        B = ev_cap.fourier_matrix_batch(k)[0]
        rhs = ev_cap.fourier_matrix_batch(rot @ k)[0]
        assert np.max(np.abs(B[np.ix_(perm, perm)] - rhs)) < 1e-12


@pytest.mark.parametrize("name", ["silver", "silver_twisted", "cap"])
def test_cocycle_at_zero_is_pf_projector(name):
    ev = FourierEvaluator(builtin(name))
    C = ev.cocycle_limit_batch(np.zeros(ev.d), 40)[0]
    assert np.max(np.abs(C @ C - C)) < 1e-10  # idempotent
    assert np.max(np.abs(C.imag)) < 1e-12
    # rank one: C = |v><u|, u the left PF vector with <u|v> = 1
    eigs, vecs = np.linalg.eig(ev.M.T.astype(float))
    u = np.real(vecs[:, np.argmax(eigs.real)])
    expect = np.outer(ev.right, u / (u @ ev.right))
    assert np.max(np.abs(C - expect)) < 1e-10


def test_silver_cocycle_matches_closed_forms(ev_silver):
    ks = np.linspace(-5, 5, 100)
    H = _per_type(ev_silver, ks.reshape(-1, 1), 30)
    ha, hb = analytic_silver(ks)
    assert np.max(np.abs(H - np.column_stack([ha, hb]))) < 1e-8


def test_rank_one_residual_twisted(ev_twisted):
    av = ev_twisted.amplitudes(0.7, n=30)
    assert av.rank1_residual < 1e-8


def test_silver_amplitudes_at_zero(ev_silver):
    m = builtin("silver")
    av = ev_silver.amplitudes(0.0, n=30)
    dens = m.density
    # H_i(0) = density * vol(W_i)/vol(W); interval lengths 1 and sqrt2
    expect = dens * np.array([1.0, S2]) / (1 + S2)
    assert np.max(np.abs(av.H - expect)) < 1e-12
    assert abs(av.H.sum() - dens) < 1e-12
    # equal-weight central intensity is the squared density
    assert abs(abs(av.H.sum()) ** 2 - LAM ** 2 / 8) < 1e-10


def test_cap_central_intensity(ev_cap):
    av = ev_cap.amplitudes(np.zeros(2), n=15)
    expect = 1.0 / (75 * TAU ** 4)
    assert abs(abs(av.H.sum()) ** 2 - expect) < 1e-9


def test_amplitudes_take_one_argument(ev_silver, ev_cap):
    """One argument of shape (d,), or a scalar when d = 1: a batch no
    longer returns its first row, and a wrong length no longer fails
    inside matmul."""
    for k in ([[0.3, 0.1], [1.0, 2.0]], [[0.3, 0.1]], 0.3, [0.3, 0.1, 0.0]):
        with pytest.raises(ValueError, match=r"argument must have shape \(2,\), "
                           r"got \("):
            ev_cap.amplitudes(k, n=3)
    for k in ([0.3, 0.1], [[0.3]], np.zeros((2, 1))):
        with pytest.raises(ValueError, match=r"shape \(1,\) or be a scalar"):
            ev_silver.amplitudes(k, n=3)
    one = ev_silver.amplitudes([0.3], n=3).H
    assert np.array_equal(ev_silver.amplitudes(0.3, n=3).H, one)
    ref = ev_cap.scale * (ev_cap.cocycle_limit_batch([[0.3, 0.1]], 3)[0] @ ev_cap.right)
    assert np.array_equal(ev_cap.amplitudes((0.3, 0.1), n=3).H, ref)


@pytest.mark.parametrize("name", ["silver", "silver_twisted", "cap"])
def test_amplitude_normalization(name):
    m = builtin(name)
    ev = FourierEvaluator(m)
    av = ev.amplitudes(np.zeros(ev.d), n=max(30, m.default_iters))
    assert abs(complex(av.H.sum()) - m.density) < 1e-10


def test_amplitude_normalization_detects_wrong_pf():
    """The cocycle divides every step by the documented PF eigenvalue, so a
    wrong one cannot be built: 1e-7 off, 1e-12 off (which a float check to
    1e-9 passed) and the other exact root 1 - sqrt2 of det(xI - M) each
    raise, through dataclasses.replace, a direct ModelSpec(...) and
    with_displacement.  On the model that exists, both amplitude paths
    read the same sum at k = 0."""
    m = builtin("silver")
    lam = m.field.one() + m.field.gen("sqrt2")
    assert m.pf_eigenvalue == lam
    fields = {f.name: getattr(m, f.name) for f in dataclasses.fields(m)}
    for bad in (lam + Fraction(1, 10**7), lam + Fraction(1, 10**12), 2 - lam):
        with pytest.raises(ModelDataError, match="documented PF eigenvalue"):
            dataclasses.replace(m, pf_eigenvalue=bad)
        with pytest.raises(ModelDataError, match="documented PF eigenvalue"):
            ModelSpec(**fields | {"pf_eigenvalue": bad})
        bare = dataclasses.replace(m, pf_eigenvalue=bad, displacement=None)
        with pytest.raises(ModelDataError, match="documented PF eigenvalue"):
            bare.with_displacement(m.displacement)
    checks = {c.name: c for c in run_verification(m)[0]}
    assert checks["amplitude-normalization"].status == "PASS"
    assert checks["pf-eigenvalue"].detail.endswith("exactly")
    ev = m.evaluator
    s = complex(ev.amplitudes(np.zeros(1), n=30).H.sum())
    total = ev.amplitude_batch(np.zeros((1, 1)), 30, weights=np.ones(2))[0]
    assert abs(s - total) < 1e-15


@pytest.mark.parametrize("name", ["silver_twisted", "cap"])
def test_cocycle_identity(name):
    """B^(m+n)(k) = B^(m)(k) . B^(n)((A^T)^m k) for m, n <= 5."""
    model = builtin(name)
    ev = FourierEvaluator(model)
    rng = np.random.default_rng(9)
    lam = ev.pf
    for _ in range(3):
        k = rng.uniform(-1.5, 1.5, size=ev.d)
        for mm in range(1, 6):
            for nn in range(1, 6):
                full = ev.cocycle_limit_batch(k, mm + nn)[0] * lam ** (mm + nn)
                left = ev.cocycle_limit_batch(k, mm)[0] * lam ** mm
                k_shift = np.atleast_1d(k) @ np.linalg.matrix_power(
                    ev.contraction, mm)
                right = ev.cocycle_limit_batch(k_shift, nn)[0] * lam ** nn
                err = np.max(np.abs(full - left @ right))
                assert err < 1e-10 * lam ** (mm + nn)


@pytest.mark.parametrize("name", ["silver", "cap"])
def test_convergence_monotone_geometric(name):
    model = builtin(name)
    ev = FourierEvaluator(model)
    rng = np.random.default_rng(13)
    for _ in range(20):
        k = rng.uniform(-2, 2, size=ev.d)
        prods = {n: ev.cocycle_limit_batch(k, n)[0] for n in range(10, 31)}
        diffs = [np.max(np.abs(prods[n + 1] - prods[n])) for n in range(10, 30)]
        for a, b in zip(diffs, diffs[1:]):
            assert b <= 0.95 * a + 1e-15


def _with_synthetic_spectre_data():
    """Casper machinery on a small primitive displacement (PF 4+sqrt15)."""
    from tilediff.models import DisplacementMatrix
    m = builtin("casper_scaffold")
    card = [[4, 3], [5, 4]]
    gens = m.generators
    entries = []
    for i in range(2):
        row = []
        for j in range(2):
            row.append(tuple([m.field.zero()] + list(gens[:card[i][j] - 1])))
        entries.append(tuple(row))
    return m.with_displacement(DisplacementMatrix(m.field, entries))


@pytest.mark.parametrize("name", ["silver", "silver_twisted", "cap",
                                  "synthetic-spectre"])
def test_window_transform_recursion(name):
    """H(k) = pf^-1 B(k) H(A^T k): the renormalization relation.

    Guards the implemented argument progression (order, transposes, and
    the antilinear spectre branch where A is a reflecting matrix)
    against regressions; the independent amplitude oracles live in the
    closed-form and Weyl-sum tests.
    """
    model = _with_synthetic_spectre_data() if name == "synthetic-spectre" \
        else builtin(name)
    ev = FourierEvaluator(model)
    rng = np.random.default_rng(7)
    for _ in range(5):
        k = rng.uniform(-1.0, 1.0, size=ev.d)
        H_k = _per_type(ev, k[None, :], 40)[0]
        k_next = np.atleast_1d(k) @ ev.contraction
        H_next = _per_type(ev, k_next[None, :], 40)[0]
        lhs = H_k
        rhs = ev.fourier_matrix_batch(k)[0] @ H_next / ev.pf
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_scaffold_has_no_evaluator():
    with pytest.raises(ModelDataError):
        FourierEvaluator(builtin("casper_scaffold"))


def test_cocycle_requires_positive_n(ev_silver):
    with pytest.raises(ValueError):
        ev_silver.cocycle_limit_batch(0.3, 0)
    with pytest.raises(ValueError, match="at least one cocycle factor"):
        ev_silver.amplitude_batch(np.array([[0.3]]), 0, weights=np.ones(2))


@pytest.mark.parametrize("name,deformation", [
    ("cap", None), ("cap", "hat"), ("silver", None), ("silver_twisted", None)])
@pytest.mark.parametrize("n", [None, 30])
def test_sweep_matches_product_path(name, deformation, n):
    """The matrix-free sweep against C_n(k) v from the full product."""
    model = builtin(name)
    ev = FourierEvaluator(model)
    pts = enumerate_module(model.lattice, np.zeros(model.dim), 0.4,
                           model.internal_cutoff)[:60]
    d = model.deformations[deformation] if deformation else None
    args = np.array([internal_argument(p, d) for p in pts])
    H = _per_type(ev, args, n)
    ref = np.array([ev.amplitudes(a, n).H for a in args])
    assert np.max(np.abs(H - ref)) <= 1e-13 * np.max(np.abs(ref))
    w = np.random.default_rng(5).normal(size=(ev.n, 2)) @ (1, 1j)
    totals = ev.amplitude_batch(args, n, weights=w)
    assert np.max(np.abs(totals - ref @ w)) <= 1e-13 * np.max(np.abs(ref @ w))


@pytest.mark.parametrize("name,deformation,weights,radius", [
    ("cap", None, "equal", 0.3), ("cap", "hat", "equal", 0.3),
    ("cap", None, "zero-central", 0.3), ("silver_twisted", None, "equal", 10.0),
    ("silver", None, "equal", 50.0),
    ("synthetic-spectre", None, "equal", 0.15)])
def test_pruned_sweep_keeps_every_point_above_floor(name, deformation, weights,
                                                    radius):
    """The weighted sweep with a floor drops only points whose unpruned
    intensity lies below it, and keeps the unpruned totals.

    Floors run geometrically over twelve decades below the brightest and
    through the exact unpruned intensities of sampled points, k = 0 among
    them, where the bound is tight."""
    model = _with_synthetic_spectre_data() if name == "synthetic-spectre" \
        else builtin(name)
    ev, n = model.evaluator, model.default_iters
    pts = enumerate_module(model.lattice, np.zeros(model.dim), radius,
                           model.internal_cutoff)
    d = model.deformations[deformation] if deformation else None
    args, w = pts.arguments(d), weight_vector(model, weights)
    full = ev.amplitude_batch(args, n, weights=w)
    intensity = np.abs(full) ** 2
    brightest = np.max(np.abs(full))
    ranked = np.sort(intensity)[::-1]
    floors = np.concatenate([brightest ** 2 * np.logspace(0, -12, 13),
                             ranked[:3], ranked[::max(1, len(ranked) // 12)],
                             intensity[np.all(args == 0, axis=1)]])
    dropped_any = False
    for floor in floors[floors > 0]:
        got = ev.amplitude_batch(args, n, weights=w, floor=floor)
        dropped = (got == 0) & (full != 0)
        assert not np.any(dropped & (intensity >= floor)), floor
        kept = ~dropped
        assert np.array_equal(got[kept], full[kept]), floor
        dropped_any |= dropped.any()
    assert dropped_any


def test_sweep_checks_input_shapes(ev_silver, ev_cap):
    """Arguments of the wrong width and weights of the wrong length are
    errors that name the expected sizes."""
    with pytest.raises(ValueError, match=r"arguments must have shape \(N, 1\)"):
        ev_silver.amplitude_batch(np.zeros((2, 3)), 5, weights=np.ones(2))
    with pytest.raises(ValueError, match=r"arguments must have shape \(N, 2\)"):
        ev_cap.amplitude_batch(np.zeros((2, 2, 2)), 5, weights=np.ones(24))
    for w in (np.ones(3), np.ones((2, 1)), 1.0):
        with pytest.raises(ValueError, match="weights must have length 2"):
            ev_silver.amplitude_batch(np.zeros((2, 1)), 5, weights=w)


def test_sweep_rejects_bad_floors(ev_silver):
    """A negative or NaN floor is an error; an infinite one stops every row."""
    K, w = np.zeros((3, ev_silver.d)), np.ones(ev_silver.n)
    for floor in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="floor"):
            ev_silver.amplitude_batch(K, 5, weights=w, floor=floor)
    assert not ev_silver.amplitude_batch(K, 5, weights=w, floor=np.inf).any()
    assert len(peak_list(builtin("silver"), threshold=np.inf)) == 0


@pytest.mark.parametrize("name", ["silver", "silver_twisted", "cap",
                                  "synthetic-spectre"])
def test_exponentials_match_direct_evaluation(name):
    """One cosine and sine per starred translation up to sign, conjugated
    where the sign differs from the first entry's: the same values as
    exp(2 pi i <t*, k>) evaluated per translation, in the column-sorted
    order of the table.  Cap evaluates 25 of its 132 translations."""
    model = _with_synthetic_spectre_data() if name == "synthetic-spectre" \
        else builtin(name)
    ev, disp = model.evaluator, model.displacement
    K = np.random.default_rng(11).uniform(-40, 40, size=(50, model.dim))
    K[0] = 0
    direct = np.exp(2j * np.pi * (K @ disp.stars.T))
    by_col = np.argsort(disp.cols, kind="stable")
    assert np.array_equal(ev._exponentials(K), direct[:, by_col])
    assert name != "cap" or len(ev._t_star) == 25
