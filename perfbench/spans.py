"""Spans around the public calls into each tilediff layer.

The benchmark does not edit the program.  For one traced iteration it
replaces the public functions (and methods) of the tilediff modules with
wrappers, records one span per call in memory, and puts the originals
back afterwards.  A span is (name, start, end, parent, iteration) plus
the counts measured at that boundary.  The same replacement mechanism,
without timing, lets a workload keep the value a CLI command computed
(``Capture``), so its gates can inspect it.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, field


def _tilediff_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tilediff" or name.startswith("tilediff."))]


def replace_function(stack: ExitStack, orig, new) -> int:
    """Point every tilediff module attribute bound to ``orig`` at ``new``."""
    hits = 0
    for mod in _tilediff_modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)
                stack.callback(setattr, mod, attr, orig)
                hits += 1
    if not hits:
        raise LookupError(f"{getattr(orig, '__qualname__', orig)} is not bound "
                          "in any tilediff module")
    return hits


def replace_method(stack: ExitStack, cls, attr: str, wrap) -> None:
    """Wrap a method or a ``functools.cached_property`` of ``cls``."""
    orig = cls.__dict__[attr]
    if isinstance(orig, functools.cached_property):
        new = functools.cached_property(wrap(orig.func))
        new.__set_name__(cls, attr)
    else:
        new = wrap(orig)
    setattr(cls, attr, new)
    stack.callback(setattr, cls, attr, orig)


class Capture:
    """Keeps the latest return value of one tilediff function."""

    def __init__(self, stack: ExitStack, module, attr: str):
        self.value = None
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def keep(*args, **kwargs):
            self.value = orig(*args, **kwargs)
            return self.value

        replace_function(stack, orig, keep)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store; ``install`` wraps the layer entry points."""

    def __init__(self):
        self.spans: list[Span] = []
        self.iteration = 0
        self._stack: list[int] = []
        self._translations: dict[int, int] = {}

    def wrap(self, name: str, count=None):
        def decorate(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                parent = self._stack[-1] if self._stack else None
                span = Span(name, time.perf_counter(), 0.0, parent, self.iteration)
                self._stack.append(len(self.spans))
                self.spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    self._stack.pop()
                if count is not None:
                    span.counts.update(count(args, kwargs, result))
                return result
            return traced
        return decorate

    def _sweep_counts(self, args, kwargs, result):
        ev, K = args[0], args[1]
        n = kwargs.get("n", args[2] if len(args) > 2 else None)
        if n is None:
            n = ev.model.default_iters
        m = self._translations.get(id(ev))
        if m is None:
            m = sum(1 for _ in ev.model.require_displacement().iter_translations())
            self._translations[id(ev)] = m
        nk = len(result)
        return {"args": nk, "arg_steps_translations": nk * int(n) * m}

    def install(self, stack: ExitStack) -> None:
        from tilediff import (cli, cocycle, cps, diffraction, inflation,
                              models, verify, windows)

        def fn(name, func, count=None):
            replace_function(stack, func, self.wrap(name, count)(func))

        def export_bytes(args, kwargs, result):
            return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}

        fn("cli.main", cli.main)
        fn("models.builtin", models.builtin)
        for attr in ("gram", "gram_det", "dual_generators", "columns", "dual_columns"):
            replace_method(stack, cps.LatticeBasis, attr, self.wrap("algebra.lattice_exact"))
        replace_method(stack, cocycle.FourierEvaluator, "__init__",
                       self.wrap("cocycle.evaluator_init"))
        fn("cps.enumerate", cps.enumerate_module,
           lambda a, k, r: {"points": len(r)})
        replace_method(stack, cocycle.FourierEvaluator, "amplitude_batch",
                       self.wrap("cocycle.sweep", self._sweep_counts))
        replace_method(stack, cocycle.FourierEvaluator, "amplitudes",
                       self.wrap("cocycle.rank1"))
        fn("diffraction.peak_list", diffraction.peak_list,
           lambda a, k, r: {"kept": len(r)})
        fn("diffraction.periodicity", diffraction.periodicity_residual)
        fn("diffraction.weyl", diffraction.weyl_sum)
        for export in (diffraction.peaks_to_csv, diffraction.peaks_to_json,
                       diffraction.peaks_to_svg):
            fn("diffraction.export", export, export_bytes)
        fn("windows.iterate", windows.iterate_windows,
           lambda a, k, r: {"cells": sum(len(c) for c in r.cells),
                            "cell_generations": r.generation * sum(len(c) for c in r.cells)})
        fn("windows.volume", windows.volume)
        fn("windows.render", windows.render_windows)
        fn("inflation.inflate", inflation.inflate, lambda a, k, r: {"points": len(r)})
        fn("inflation.patch_csv", inflation.patch_to_csv)
        fn("verify.run", verify.run_verification)

    # -- analysis -----------------------------------------------------------

    def self_times(self, iteration: int | None = None) -> dict:
        """Per span name: total duration minus the part its children cover."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.duration
        out: dict[str, float] = {}
        for i, sp in enumerate(self.spans):
            if iteration is None or sp.iteration == iteration:
                out[sp.name] = out.get(sp.name, 0.0) + sp.duration - child_time[i]
        return out

    def layer_values(self, iteration: int) -> dict:
        """Per-layer metric values of one traced iteration."""
        spans = [sp for sp in self.spans if sp.iteration == iteration]

        def outermost(name):
            # time of the spans of ``name`` not nested in another such span
            total = 0.0
            for sp in spans:
                if sp.name != name:
                    continue
                p = sp.parent
                while p is not None and self.spans[p].name != name:
                    p = self.spans[p].parent
                if p is None:
                    total += sp.duration
            return total

        def count(name, key, under=None):
            return sum(sp.counts.get(key, 0) for sp in spans if sp.name == name
                       and (under is None or (sp.parent is not None
                                              and self.spans[sp.parent].name == under)))

        self_t = self.self_times(iteration)

        def per(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        enum_s = outermost("cps.enumerate")
        points = count("cps.enumerate", "points")
        sweep_s = outermost("cocycle.sweep")
        iterate_s = outermost("windows.iterate")
        inflate_s = outermost("inflation.inflate")
        inflated = count("inflation.inflate", "points")
        return {
            "models.builtin_s": outermost("models.builtin"),
            "algebra.lattice_exact_s": outermost("algebra.lattice_exact"),
            "cocycle.evaluator_init_s": outermost("cocycle.evaluator_init"),
            "cps.enumerate_s": enum_s,
            "cps.points": points,
            "cps.us_per_point": per(enum_s, points, 1e6),
            "cocycle.sweep_s": sweep_s,
            "cocycle.args": count("cocycle.sweep", "args"),
            "cocycle.ns_per_arg_step_translation": per(
                sweep_s, count("cocycle.sweep", "arg_steps_translations"), 1e9),
            "cocycle.rank1_s": outermost("cocycle.rank1"),
            "diffraction.peak_list_self_s": self_t.get("diffraction.peak_list", 0.0),
            "diffraction.kept_ratio": per(
                count("diffraction.peak_list", "kept"),
                count("cps.enumerate", "points", under="diffraction.peak_list")),
            "diffraction.periodicity_s": outermost("diffraction.periodicity"),
            "diffraction.weyl_s": outermost("diffraction.weyl"),
            "diffraction.export_s": outermost("diffraction.export"),
            "diffraction.export_bytes": count("diffraction.export", "bytes"),
            "windows.iterate_s": iterate_s,
            "windows.cells": count("windows.iterate", "cells"),
            "windows.cells_per_s": per(count("windows.iterate", "cell_generations"),
                                       iterate_s),
            "windows.volume_s": outermost("windows.volume"),
            "windows.render_s": outermost("windows.render"),
            "inflation.inflate_s": inflate_s,
            "inflation.points": inflated,
            "inflation.us_per_point": per(inflate_s, inflated, 1e6),
            "inflation.patch_csv_s": outermost("inflation.patch_csv"),
            "verify.run_s": outermost("verify.run"),
            "cli.overhead_s": self_t.get("cli.main", 0.0),
        }

    def to_json(self) -> list:
        return [{"name": sp.name, "start": sp.start, "end": sp.end,
                 "parent": sp.parent, "iteration": sp.iteration,
                 **({"counts": sp.counts} if sp.counts else {})}
                for sp in self.spans]


def median_values(per_iteration: list) -> dict:
    """Median of each metric over the traced iterations."""
    return {key: statistics.median(v[key] for v in per_iteration)
            for key in per_iteration[0]}


# Which end-to-end metric each layer metric should move, on which workloads,
# and where the prediction is no move.  Performance changes cite these by name.
EXPECTED = {
    "models.builtin_s": ("setup_s", "all", ""),
    "algebra.lattice_exact_s": ("setup_s", "all", ""),
    "cocycle.evaluator_init_s": ("setup_s", "all", ""),
    "cps.enumerate_s": ("wall_s, work_per_s", "casper-support; cap-spectrum (about 4%)",
                        "cap-window"),
    "cps.points": ("work_per_s", "casper-support", "cap-window"),
    "cps.us_per_point": ("wall_s, work_per_s", "casper-support; cap-spectrum (about 4%)",
                         "cap-window"),
    "cocycle.sweep_s": ("wall_s", "cap-spectrum; silver-line, silver-window secondary",
                        "casper-support, cap-window"),
    "cocycle.args": ("wall_s", "cap-spectrum, silver-line, silver-window",
                     "casper-support, cap-window"),
    "cocycle.ns_per_arg_step_translation": ("wall_s", "cap-spectrum, silver-line, silver-window",
                                            "casper-support, cap-window"),
    "cocycle.rank1_s": ("wall_s", "cap-spectrum", "casper-support, cap-window"),
    "diffraction.peak_list_self_s": ("wall_s", "cap-spectrum, silver-line, silver-window",
                                     "casper-support, cap-window"),
    "diffraction.kept_ratio": ("wall_s", "cap-spectrum, silver-line, silver-window",
                               "casper-support, cap-window"),
    "diffraction.periodicity_s": ("wall_s", "cap-spectrum", "others"),
    "diffraction.weyl_s": ("wall_s", "silver-line, silver-window", "others"),
    "diffraction.export_s": ("wall_s", "cap-spectrum", "others"),
    "diffraction.export_bytes": ("wall_s", "cap-spectrum", "others"),
    "windows.iterate_s": ("wall_s, work_per_s, peak_rss_mb", "cap-window, silver-window",
                          "others"),
    "windows.cells": ("work_per_s", "cap-window, silver-window", "others"),
    "windows.cells_per_s": ("wall_s, work_per_s", "cap-window, silver-window", "others"),
    "windows.volume_s": ("wall_s", "cap-window, silver-window", "others"),
    "windows.render_s": ("wall_s, peak_rss_mb", "cap-window, silver-window", "others"),
    "inflation.inflate_s": ("wall_s, work_per_s", "silver-line, silver-window", "others"),
    "inflation.points": ("work_per_s", "silver-line, silver-window", "others"),
    "inflation.us_per_point": ("wall_s, work_per_s", "silver-line, silver-window",
                               "others"),
    "inflation.patch_csv_s": ("wall_s", "silver-line, silver-window", "others"),
    "verify.run_s": ("wall_s (small)", "cap-spectrum, casper-support", "others"),
    "cli.overhead_s": ("wall_s", "every CLI-driven workload", ""),
    "trace.wall_s": ("none: the traced iteration time", "all", ""),
    "trace.overhead_s": ("none: traced minus untraced wall_s", "all", ""),
}
