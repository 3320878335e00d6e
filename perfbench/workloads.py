"""The benchmark workloads: four separate ones, and silver-window.

Each workload is a closed loop with one caller: ``iteration`` runs its
commands back to back through ``tilediff.cli.main`` or the public library
functions, and ``gates`` checks what the first iteration produced.  Later
iterations are checked by ``digest``: their files must be byte-identical
to the first iteration's.

The seed jitters the sweep radii (by 0.5% steps, at most 1%, from a fixed
set of levels whose expected counts ``reference.json`` records) and picks
the random probes: the seed of the verification suite, the periodicity
samples, and the peaks used for the Weyl-sum oracle.  Seed 0 runs the CLI
defaults.  Sweep centres never move.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import tilediff
from tilediff import cli, cps, diffraction, inflation, verify, windows
from tilediff.cocycle import FourierEvaluator

import gates as G
from spans import Capture

REFERENCE = Path(__file__).with_name("reference.json")
RADIUS_STEP = 0.005
LEVELS = (-2, -1, 0, 1, 2)


def radius_level(seed: int) -> int:
    if seed == 0:
        return 0
    return int(np.random.default_rng([seed, 1]).choice(LEVELS))


def jittered(radius: float, level: int) -> float:
    return radius * (1.0 + RADIUS_STEP * level)


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class Workload:
    name = ""
    models: tuple = ()
    work_unit = ""

    def __init__(self, seed: int, outdir: Path, reference: dict):
        self.seed = seed
        self.outdir = outdir
        self.ref = reference[self.name]
        self.level = radius_level(seed)
        self.stdout: dict = {}

    def cli(self, *argv) -> int:
        """Run one CLI command, keeping its stdout for the gates."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(list(argv))
        self.stdout[" ".join(argv)] = stdout.getvalue()
        if code != 0:
            raise RuntimeError(f"tilediff {' '.join(argv)} exited {code}: "
                               f"{stderr.getvalue().strip()}")
        return code

    def commands(self) -> list:
        raise NotImplementedError

    def work(self) -> float:
        """Work units completed by the last iteration (``work_unit``)."""
        raise NotImplementedError

    def digest(self) -> str:
        raise NotImplementedError

    def gates(self) -> list:
        raise NotImplementedError


class CapSpectrum(Workload):
    """The paper's headline computation: CAP and Hat peak lists, then verify."""

    name = "cap-spectrum"
    models = ("cap",)
    work_unit = "module points swept"

    def __init__(self, seed, outdir, reference):
        super().__init__(seed, outdir, reference)
        self.radius = jittered(self.ref["radius"], self.level)
        self.level_ref = self.ref["levels"][str(self.level)]
        cap = tilediff.builtin("cap")
        self.module_points = len(cps.enumerate_module(
            cap.lattice, np.zeros(2), self.radius, cap.internal_cutoff))

    def commands(self):
        extra = ("--radius", repr(self.radius)) if self.level else ()
        return [("peaks cap", lambda: self.cli("peaks", "--model", "cap", *extra)),
                ("peaks cap hat", lambda: self.cli("peaks", "--model", "cap",
                                                   "--deformation", "hat", *extra)),
                ("verify cap", lambda: self.cli("verify", "--model", "cap"))]

    def work(self):
        return 2.0 * self.module_points

    def _files(self):
        return [self.outdir / f"peaks_cap{s}.{e}" for s in ("", "_hat")
                for e in ("csv", "json", "svg")]

    def digest(self):
        return _digest(*self._files())

    def load(self):
        return (G.read_peak_csv(self.outdir / "peaks_cap.csv"),
                G.read_peak_csv(self.outdir / "peaks_cap_hat.csv"))

    def product_path(self, peaks, deformation, count=20):
        """Reference amplitudes of the brightest peaks from the full product."""
        cap = tilediff.builtin("cap")
        ev = FourierEvaluator(cap)
        d = cap.deformations[deformation] if deformation else None
        out = []
        for coords in peaks.coords[:count]:
            k = tilediff.module_point(cap.lattice, coords)
            arg = cps.internal_argument(k, d)
            out.append(complex(ev.amplitudes(arg, n=30).H.sum()))
        return np.array(out)

    def gates(self, tables=None):
        equal, hat = tables or self.load()
        cap = tilediff.builtin("cap")
        resid_cli = _parse_residual(self.stdout.values())
        resid = diffraction.periodicity_residual(cap, "hat", "equal", n_samples=20,
                                                 n=cap.default_iters, seed=self.seed)
        _, ok = verify.run_verification(cap, seed=self.seed)
        return [
            G.equal("module points swept", self.module_points,
                    self.level_ref["module_points"]),
            G.equal("peak count (equal)", len(equal), self.level_ref["peaks_equal"]),
            G.equal("peak count (hat)", len(hat), self.level_ref["peaks_hat"]),
            G.central_intensity("central intensity (equal)", equal, cap.density),
            G.central_intensity("central intensity (hat)", hat, cap.density),
            G.sixfold("sixfold symmetry (equal)", equal),
            G.below("hat periodicity residual (CLI)", resid_cli, 1e-10),
            G.below(f"hat periodicity residual (seed {self.seed})", resid, 1e-10),
            G.amplitudes_close("20 brightest vs product path n=30 (equal)",
                               equal.amplitude[:20], self.product_path(equal, None),
                               1e-10),
            G.amplitudes_close("20 brightest vs product path n=30 (hat)",
                               hat.amplitude[:20], self.product_path(hat, "hat"),
                               1e-10),
            G.Gate(f"verify suite (seed {self.seed})", ok, "no FAIL checks"),
        ]


def _parse_residual(stdouts) -> float:
    for text in stdouts:
        for line in text.splitlines():
            if "max residual" in line:
                return float(line.rsplit("max residual", 1)[1].strip(" )"))
    return float("inf")


class CasperSupport(Workload):
    """Fourier-module enumeration for the Spectre support, then verify."""

    name = "casper-support"
    models = ("casper_scaffold",)
    work_unit = "module points enumerated"

    def __init__(self, seed, outdir, reference):
        super().__init__(seed, outdir, reference)
        self.radius = jittered(self.ref["radius"], self.level)
        self.cutoff = self.ref["internal_cutoff"]
        self.points = []

    def enumerate(self):
        model = tilediff.builtin("casper_scaffold")
        self.points = cps.enumerate_module(model.lattice, np.zeros(2), self.radius,
                                           self.cutoff)
        return 0

    def commands(self):
        return [("enumerate casper", self.enumerate),
                ("verify casper", lambda: self.cli("verify", "--model", "casper_scaffold"))]

    def work(self):
        return float(len(self.points))

    def coords(self):
        return np.array([p.coords for p in self.points], dtype=np.int64)

    def digest(self):
        return hashlib.sha256(self.coords().tobytes()).hexdigest()

    def gates(self, coords=None):
        coords = self.coords() if coords is None else coords
        model = tilediff.builtin("casper_scaffold")
        _, ok = verify.run_verification(model, seed=self.seed)
        return [
            G.equal("module points", len(coords),
                    self.ref["levels"][str(self.level)]["module_points"]),
            G.module_points_valid("points distinct and inside the cylinder", coords,
                                  model.lattice.dual_columns, self.radius, self.cutoff),
            G.Gate(f"verify suite (seed {self.seed})", ok, "no FAIL checks"),
        ]


class CapWindow(Workload):
    """The CAP window IFS: 12 generations, volume, SVG.

    Resolution 8, the grid of the acceptance tests, not the CLI default 9:
    a resolution-9 command takes 14-20 s on a 2-core box, too long for the
    median of three iterations to fit in one run.
    """

    name = "cap-window"
    models = ("cap",)
    work_unit = "window cells x generations"

    def __init__(self, seed, outdir, reference):
        super().__init__(seed, outdir, reference)
        self.cloud = self.vol = None

    def run_window(self):
        with ExitStack() as stack:
            cloud = Capture(stack, windows, "iterate_windows")
            vol = Capture(stack, windows, "volume")
            code = self.cli("window", "--model", "cap", "--generations",
                            str(self.ref["generations"]), "--resolution",
                            str(self.ref["resolution"]))
        self.cloud, self.vol = cloud.value, vol.value
        return code

    def commands(self):
        return [("window cap", self.run_window)]

    def work(self):
        return float(sum(len(c) for c in self.cloud.cells) * self.cloud.generation)

    def digest(self):
        h = hashlib.sha256(Path(self.outdir / "window_cap.svg").read_bytes())
        for c in self.cloud.cells:
            h.update(np.ascontiguousarray(c).tobytes())
        return h.hexdigest()

    def gates(self, counts=None):
        counts = [len(c) for c in self.cloud.cells] if counts is None else counts
        cap = tilediff.builtin("cap")
        vol, bracket = self.vol
        return [
            G.equal("generations", self.cloud.generation, self.ref["generations"]),
            G.window_cells("cells per type", counts, self.ref["cells_per_type"]),
            G.window_density("window density vs model density", vol, bracket,
                             cap.lattice.density, cap.density),
        ]


class SilverLine(Workload):
    """Exact silver inflation, the Weyl-sum oracle, and 1d peak sweeps."""

    name = "silver-line"
    models = ("silver", "silver_twisted")
    work_unit = "patch points"

    def __init__(self, seed, outdir, reference):
        super().__init__(seed, outdir, reference)
        self.radius = jittered(self.ref["radius"], self.level)
        self.n = self.ref["n"]
        pool = self.ref["weyl_pool"]
        pick = range(10) if seed == 0 else \
            np.random.default_rng([seed, 2]).choice(pool, 10, replace=False)
        self.weyl_rows = sorted(int(i) for i in pick)
        self.patch = self.peaks = self.twisted = None
        self.weyl = []

    def run_patch(self):
        with ExitStack() as stack:
            patch = Capture(stack, inflation, "inflate")
            code = self.cli("patch", "--model", "silver", "--steps", str(self.ref["steps"]))
        self.patch = patch.value
        return code

    def run_peaks(self):
        self.peaks = diffraction.peak_list(tilediff.builtin("silver"), radius=self.radius,
                                           n=self.n)
        return 0

    def run_weyl(self):
        pos = self.patch.positions_phys()[:, 0]
        measure = float(pos.max() - pos.min())
        strong = [p for p in self.peaks if not p.k.is_origin()]
        self.weyl = [(strong[i].amplitude,
                      diffraction.weyl_sum(self.patch, strong[i].k.k_phys, np.ones(2),
                                           measure))
                     for i in self.weyl_rows]
        return 0

    def run_twisted(self):
        self.twisted = diffraction.peak_list(
            tilediff.builtin("silver_twisted"), radius=self.radius, n=self.n,
            deformation="equal-lengths")
        return 0

    def commands(self):
        return [("patch silver", self.run_patch), ("peaks silver", self.run_peaks),
                ("weyl silver", self.run_weyl), ("peaks silver_twisted", self.run_twisted)]

    def work(self):
        return float(len(self.patch))

    def digest(self):
        h = hashlib.sha256(Path(self.outdir / "patch_silver.csv").read_bytes())
        for peaks in (self.peaks, self.twisted):
            h.update(json.dumps([(p.k.coords, repr(p.amplitude)) for p in peaks]).encode())
        return h.hexdigest()

    def gates(self, patch_points=None):
        silver = tilediff.builtin("silver")
        patch_points = len(self.patch) if patch_points is None else patch_points
        M = tilediff.substitution_matrix(silver).tolist()
        k_int = np.array([p.k.k_int[0] for p in self.peaks])
        ha, hb = diffraction.analytic_silver(k_int)
        weyl_err = max(abs(w - a) / abs(a) for a, w in self.weyl)
        level = self.ref["levels"][str(self.level)]
        return [
            G.equal("patch points = column sum of M^12", patch_points,
                    G.column_sum_of_power(M, self.ref["steps"], 0)),
            G.equal("peak count (silver)", len(self.peaks), level["peaks_silver"]),
            G.equal("peak count (silver_twisted)", len(self.twisted),
                    level["peaks_twisted"]),
            G.amplitudes_close("amplitudes vs analytic_silver n=30",
                               [p.amplitude for p in self.peaks], ha + hb, 1e-12,
                               relative=False),
            G.below(f"Weyl-sum relative error, peaks {self.weyl_rows}", weyl_err, 0.05),
        ]


class SilverWindow(Workload):
    """silver-line's commands, then cap-window's, as one workload.

    Exact inflation and the window IFS, the two layers that no cocycle
    change touches, share one timed workload.  Alone, the memory-bound
    window IFS drifted between runs by more than the benchmark's bounds
    on a shared 2-core host; behind the longer silver-line commands its
    drift weighs about a third.  ``work_per_s`` counts patch points.
    """

    name = "silver-window"
    models = SilverLine.models + CapWindow.models
    work_unit = SilverLine.work_unit

    def __init__(self, seed, outdir, reference):
        self.line = SilverLine(seed, outdir, reference)
        self.window = CapWindow(seed, outdir, reference)
        self.level = self.line.level

    def commands(self):
        return self.line.commands() + self.window.commands()

    def work(self):
        return self.line.work()

    def digest(self):
        return self.line.digest() + self.window.digest()

    def gates(self):
        return self.line.gates() + self.window.gates()


WORKLOADS = {w.name: w for w in (CapSpectrum, CasperSupport, CapWindow, SilverLine,
                                 SilverWindow)}
SEPARATE = ("cap-spectrum", "casper-support", "cap-window", "silver-line")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
