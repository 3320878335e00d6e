"""Command-line front end.

Subcommands: ``models`` (catalog listing), ``peaks`` (Bragg peak sweep to
CSV/JSON/SVG), ``window`` (window rendering), ``verify`` (model check
suites), ``patch`` (inflation patch export).  Exit codes: 0 success,
1 usage error, 2 verification failure, 3 missing data.

The environment variable ``TILEDIFF_OUTDIR`` sets the default output
directory.  All numeric output is deterministic: identical configuration
produces byte-identical files.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .algebra import Surd
from .models import ModelDataError, builtin, builtin_names, load_displacement
from . import diffraction, inflation, windows
from .verify import FAIL, run_verification

__all__ = ["main"]

EXIT_OK, EXIT_USAGE, EXIT_VERIFY, EXIT_NODATA = 0, 1, 2, 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked(kind, ok, what: str):
    """argparse type: parse with ``kind``; reject non-finite or not ``ok``."""
    def parse(token: str):
        try:
            x = kind(token)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{token!r} is not a valid {kind.__name__}") from None
        # an int is finite, and math.isfinite overflows on a huge one
        if not ((kind is int or math.isfinite(x)) and ok(x)):
            raise argparse.ArgumentTypeError(f"{token!r} must be {what}")
        return x
    return parse


def _finite_floats(token: str) -> list:
    """argparse type: comma-separated finite floats."""
    try:
        xs = [float(x) for x in token.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{token!r} is not a comma-separated list of numbers") from None
    if not all(map(math.isfinite, xs)):
        raise argparse.ArgumentTypeError(f"{token!r} must be finite")
    return xs


def _zoom(token: str) -> tuple:
    """argparse type: 'lo,hi' with finite lo < hi."""
    xs = _finite_floats(token)
    if len(xs) != 2 or not xs[0] < xs[1]:
        raise argparse.ArgumentTypeError(f"{token!r} must be lo,hi with lo < hi")
    return tuple(xs)


def _outdir() -> Path:
    return Path(os.environ.get("TILEDIFF_OUTDIR", "."))


def _load_model(args, need_data: bool = True):
    """The --model built-in with --data attached.  Without displacement
    data, raises ModelDataError (exit 3) when ``need_data``."""
    model = builtin(args.model)
    if getattr(args, "data", None):
        model = model.with_displacement(load_displacement(args.data))
    if need_data and not model.has_displacement:
        raise ModelDataError(
            f"model {model.name!r} needs displacement data (--data FILE)")
    return model


def _resolve_deformation(model, spec: str):
    if spec.startswith("from-lengths:"):
        if model.field.name != "silver":
            raise UsageError("from-lengths applies to the silver models only")
        parts = spec.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise UsageError("from-lengths needs two lengths, e.g. "
                             "from-lengths:4-2*sqrt2,4-2*sqrt2")
        lengths = []
        for token in parts:
            try:
                lengths.append(Surd.parse(token))
            except ValueError:
                what = "not exact" if "." in token or "e" in token.lower() \
                    else "cannot parse"
                raise UsageError(f"{what} length {token!r}; write a sum of "
                                 "p/q*sqrtm terms, e.g. 4-2*sqrt2") from None
        try:
            deformation = diffraction.deformation_from_lengths(*lengths)
            model.lattice.periods(deformation)   # its exact data fit int64
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        return deformation
    if spec not in model.deformations:
        raise UsageError(
            f"model {model.name!r} has no deformation {spec!r}; "
            f"available: {sorted(model.deformations)}")
    return model.deformations[spec]


def _parse_weights(token: str):
    if token in ("equal", "zero-central"):
        return token
    try:
        weights = [complex(x) for x in token.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse weights {token!r}") from exc
    if not all(map(cmath.isfinite, weights)):
        raise UsageError(f"--weights {token!r} must be finite")
    return weights


# ---------------------------------------------------------------------------
# Subcommands

def cmd_models(args) -> int:
    rows = []
    for name in builtin_names():
        m = builtin(name)
        rows.append({
            "name": name,
            "field": m.field.name,
            "tiles": m.n_tiles,
            "deformations": sorted(m.deformations),
            "displacement": "loaded" if m.has_displacement
                            else "none (load required)",
            "fourier_module": m.fourier_module_doc,
        })
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        for r in rows:
            defs = ",".join(r["deformations"]) or "-"
            print(f"{r['name']:16s} field={r['field']:8s} tiles={r['tiles']:<3d} "
                  f"deformations={defs:24s} displacement: {r['displacement']}")
    return EXIT_OK


def cmd_peaks(args) -> int:
    model = _load_model(args)
    deformation = _resolve_deformation(model, args.deformation) \
        if args.deformation else None
    try:
        weights = diffraction.weight_vector(model, _parse_weights(args.weights))
    except ValueError as exc:
        raise UsageError(f"--weights: {exc}") from exc
    if args.center is not None and len(args.center) != model.dim:
        raise UsageError(f"--center needs {model.dim} coordinates")
    try:
        peaks = diffraction.peak_list(
            model, center=args.center, radius=args.radius,
            internal_cutoff=args.internal_cutoff, threshold=args.threshold,
            weights=weights, deformation=deformation, n=args.iters)
    except ValueError as exc:   # a search box above cps.MAX_CANDIDATES or int64
        raise UsageError(f"{exc}; reduce --radius, --center or "
                         "--internal-cutoff") from exc

    base = args.out or f"peaks_{model.name}" + (
        f"_{deformation.name}" if deformation is not None else "")
    stem, ext = os.path.splitext(base)
    if ext in (".csv", ".json", ".svg"):
        base = stem
    outdir = _outdir()
    outdir.mkdir(parents=True, exist_ok=True)
    diffraction.peaks_to_csv(peaks, outdir / f"{base}.csv")
    diffraction.peaks_to_json(peaks, outdir / f"{base}.json")
    diffraction.peaks_to_svg(peaks, outdir / f"{base}.svg")

    brightest = peaks.intensity[0] if len(peaks) else 0.0
    print(f"{len(peaks)} peaks with intensity >= {args.threshold:g}; "
          f"brightest {brightest:.9g}; wrote {base}.csv/.json/.svg in {outdir}")
    if deformation is not None and len(periods := model.lattice.periods(deformation)):
        resid = diffraction.periodicity_residual(
            model, deformation, weights, n_samples=20, n=args.iters)
        gens = "; ".join("(" + ", ".join(format(x, ".9g") for x in p) + ")"
                         for p in periods.k_phys)
        # what rounding alone puts into k_int - D^T k_phys at a shift by p
        scale = (np.finfo(float).eps * np.linalg.norm(deformation.matrix, 2)
                 * np.linalg.norm(periods.k_phys, axis=1).max())
        print(f"intensity is lattice-periodic: period generators {gens} "
              f"(rounding scale {scale:.3g}, max residual {resid:.3g})")
    return EXIT_OK


def cmd_window(args) -> int:
    model = _load_model(args)
    if args.zoom and model.dim != 1:
        raise UsageError(f"--zoom applies to 1d windows only, not {model.name!r}")
    generations = args.generations
    if generations is None:
        generations = 22 if model.dim == 1 else 12
    outdir = _outdir()
    out = outdir / (args.out or f"window_{model.name}.svg")
    try:   # above windows.MAX_STEP_CELLS, cell indices at 2**53, int64 keys
        cloud = windows.iterate_windows(model, generations,
                                        resolution=args.resolution)
        v, br = windows.volume(cloud)
        outdir.mkdir(parents=True, exist_ok=True)
        windows.render_windows(cloud, out, model=model, zoom=args.zoom)
    except ValueError as exc:
        raise UsageError(f"{exc}; reduce --resolution or --generations") from exc
    print(f"window cloud generation {cloud.generation}, cell {cloud.cell_size:.3g}; "
          f"total volume {v:.6g} (+- {br:.2g}); wrote {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    model = _load_model(args, need_data=False)
    checks, ok = run_verification(model)
    width = max(len(c.name) for c in checks)
    for c in checks:
        print(f"{c.name:{width}s}  {c.status:4s}  {c.detail}")
    n_fail = sum(c.status == FAIL for c in checks)
    print(f"{len(checks)} checks, {n_fail} failed")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_patch(args) -> int:
    model = _load_model(args)
    try:
        patch = inflation.inflate(inflation.seed_patch(model), model, args.steps)
    except ValueError as exc:   # e.g. above inflation.MAX_PATCH_POINTS
        raise UsageError(f"--steps: {exc}") from exc
    if args.radius is not None:
        # an inflated seed tile grows away from the origin: centre on the patch
        center = patch.positions_phys().mean(axis=0)
        patch = inflation.truncate(patch, args.radius, center)
    outdir = _outdir()
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / (args.out or f"patch_{model.name}.csv")
    inflation.patch_to_csv(patch, out, model=model)
    print(f"{len(patch)} control points after {args.steps} steps; wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="tilediff",
                description="Bragg spectra of cut-and-project tilings "
                            "via the internal Fourier cocycle")
    sub = p.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("models", help="list built-in models")
    pm.add_argument("--json", action="store_true")
    pm.set_defaults(func=cmd_models)

    def add_model_args(sp):
        sp.add_argument("--model", required=True, choices=builtin_names())
        sp.add_argument("--data", help="displacement JSON file to load")

    pp = sub.add_parser("peaks", help="compute a Bragg peak list")
    add_model_args(pp)
    pp.add_argument("--deformation")
    pp.add_argument("--weights", default="equal")
    pp.add_argument("--center", type=_finite_floats)
    pp.add_argument("--radius", default=0.6,
                    type=_checked(float, lambda x: x >= 0, "finite and >= 0"))
    pp.add_argument("--internal-cutoff", default=None,
                    type=_checked(float, lambda x: x > 0, "finite and > 0"))
    pp.add_argument("--threshold", default=1e-6,
                    type=_checked(float, lambda x: x > 0, "finite and > 0"))
    # the contracted cocycle argument falls below one ulp after about 40-50
    # steps for every built-in model, so more steps only cost time
    pp.add_argument("--iters", default=None,
                    type=_checked(int, lambda x: 1 <= x <= 1000, "in [1, 1000]"))
    pp.add_argument("--out", metavar="BASE",
                    help="write BASE.csv, BASE.json and BASE.svg; one trailing "
                         ".csv, .json or .svg is dropped from BASE (default "
                         "peaks_MODEL or peaks_MODEL_DEFORMATION)")
    pp.set_defaults(func=cmd_peaks)

    pw = sub.add_parser("window", help="render window clouds to SVG")
    add_model_args(pw)
    # at a fixed resolution the cloud saturates (silver at 1,000 generations
    # reports the volume of the default 22), so more generations only cost time
    pw.add_argument("--generations", default=None,
                    type=_checked(int, lambda x: 1 <= x <= 1000, "in [1, 1000]"),
                    help="IFS iterations (default 22 in 1d, 12 in 2d)")
    # the first IFS step reaches cell indices of 2**53 from 54 bits for the
    # silver models and 33 for cap, so finer grids only fail, and past about
    # 1,000 bits the cell size is no longer a normal float
    pw.add_argument("--resolution", default=None,
                    type=_checked(int, lambda x: 1 <= x <= 64, "in [1, 64]"),
                    help="grid bits: cell = diameter * 2^-resolution")
    pw.add_argument("--zoom", type=_zoom,
                    help="lo,hi zoom strip for 1d windows")
    pw.add_argument("--out")
    pw.set_defaults(func=cmd_window)

    pv = sub.add_parser("verify", help="run model verification checks")
    add_model_args(pv)
    pv.set_defaults(func=cmd_verify)

    pa = sub.add_parser("patch", help="export an inflation patch as CSV")
    add_model_args(pa)
    pa.add_argument("--steps", default=6,
                    type=_checked(int, lambda x: x >= 0, ">= 0"))
    pa.add_argument("--radius", default=None,
                    type=_checked(float, lambda x: x >= 0, "finite and >= 0"))
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_patch)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelDataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_NODATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
