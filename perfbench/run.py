"""tilediff benchmark: time-to-spectrum end to end, and per layer when traced.

Run from the repository root:

    python3 perfbench/run.py --workload cap-spectrum --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # all four workloads, one child each
    python3 perfbench/run.py --self-test               # each gate fires on broken data

One run builds the workload's inputs from ``--seed``, then runs its
commands back to back (a closed loop, one caller, one process, tilediff's
default of one worker thread) until the next iteration would pass
``--seconds``, with at least two iterations.  Between iterations it starts
the set-up probes, fresh processes spread evenly over the run, so that
``setup_s`` samples the same stretch of time as ``wall_s``.
The outputs of the first iteration go through the gates in ``gates.py``;
every later iteration must write byte-identical files.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_s`` (median iteration time), ``setup_s`` (median over the probes
of import, built-in models, exact lattices and evaluator
construction), ``work_per_s``, ``peak_rss_mb`` and ``ok_ratio`` (commands
and gates that passed, over those attempted; ``1 - failed_ratio``).  With
``--trace 1`` untraced and traced iterations alternate, spans are written
to ``.perfbench_out/`` and the line reports the per-layer metrics named in
``BENCHMARK.json``, plus the tracing overhead.  The line before it
(``report {...}``) carries sample counts, quartiles, gates and the machine.

The end-to-end metric each layer metric should move, and on which
workload, is ``spans.EXPECTED``.

``BENCHMARK.json`` times two workloads: ``cap-spectrum`` and
``silver-window`` (silver-line's commands followed by cap-window's).  On a
shared 2-core host the speed of the host drifts by up to a third over
minutes.  Runs of about a minute, which the time allowed for all runs
holds for two workloads, and the window IFS behind the steadier
silver-line commands narrow the spread between runs; the memory-bound
window IFS alone spread past the 25% bounds.  Every layer is still timed
on one of the two.  ``casper-support``, ``cap-window`` and
``silver-line`` run by name and under ``--workload all``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"
SETUP_PROBES = 12
MIN_ITERATIONS = 2  # the byte-identical check needs a second iteration
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_tilediff():
    """Import tilediff from this checkout's sources, never from elsewhere."""
    if not (SRC / "tilediff" / "__init__.py").is_file():
        raise ImportError(f"no tilediff sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tilediff
    if SRC.resolve() not in Path(tilediff.__file__).resolve().parents:
        raise ImportError(f"tilediff imported from {tilediff.__file__}, not {SRC}")
    return tilediff


def machine(seed: int) -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip().lower()
            caches[f"L{level}_{kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "caches": caches,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
            "tilediff_threads": 1, "seed": seed}


# -- set-up -------------------------------------------------------------------

def setup_probe(workload: str) -> int:
    """Time import, models, exact lattices and evaluators in this fresh process."""
    t0 = time.perf_counter()
    tilediff = import_tilediff()
    import tilediff.cli  # noqa: F401  (the CLI imports every layer)
    from workloads import WORKLOADS
    for name in WORKLOADS[workload].models:
        model = tilediff.builtin(name)
        lat = model.lattice
        lat.dual_generators, lat.columns, lat.dual_columns  # noqa: B018
        if model.has_displacement:
            tilediff.FourierEvaluator(model)
    print(repr(time.perf_counter() - t0))
    return 0


class SetupProbes:
    """Set-up probes in fresh processes, started between the iterations."""

    def __init__(self, workload: str, count: int):
        self.workload = workload
        self.count = count
        self.times: list = []  # set-up time each probe measured
        self.costs: list = []  # wall time of each probe, process start included

    def remaining_s(self) -> float:
        return (self.count - len(self.times)) * statistics.median(self.costs or [0.0])

    def catch_up(self, fraction: float) -> None:
        """Run probes until ``fraction`` of them are done."""
        while len(self.times) < min(self.count, math.ceil(self.count * fraction)):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--setup-probe", self.workload],
                                  capture_output=True, text=True, timeout=120, cwd=ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
            self.times.append(float(proc.stdout.strip().splitlines()[-1]))
            self.costs.append(time.perf_counter() - t0)


# -- one run ------------------------------------------------------------------

def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


class Run:
    def __init__(self, workload, seconds: float, trace: bool):
        self.w = workload
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failures: list = []
        self.times = {False: [], True: []}
        self.digests: list = []
        self.recorder = None

    def iteration(self, traced: bool) -> float:
        with ExitStack() as stack:
            if traced:
                self.recorder.install(stack)
            t0 = time.perf_counter()
            for label, command in self.w.commands():
                self.attempted += 1
                try:
                    command()
                except Exception:  # one failed command must not end the run
                    self.failures.append(label)
                    traceback.print_exc(file=sys.stderr)
            dt = time.perf_counter() - t0
        if not self.failures:
            try:
                self.digests.append(self.w.digest())
            except Exception:
                self.failures.append("digest")
                traceback.print_exc(file=sys.stderr)
        return dt

    def loop(self, probes: SetupProbes | None = None) -> None:
        from spans import Recorder
        start = time.perf_counter()
        if self.trace:
            # unrecorded warm-up, so the first-touch cost of memory does not
            # land on the untraced side of the overhead estimate
            self.recorder = Recorder()
            self.iteration(traced=False)
        n = 0
        while True:
            traced = self.trace and n % 2 == 1
            if self.recorder is not None:
                self.recorder.iteration = n
            self.times[traced].append(self.iteration(traced))
            n += 1
            done = self.times[False] + self.times[True]
            if probes is not None:
                probes.catch_up((time.perf_counter() - start) / self.seconds)
            elapsed = time.perf_counter() - start
            pending = probes.remaining_s() if probes is not None else 0.0
            if n >= MIN_ITERATIONS and elapsed + statistics.median(done) + pending > self.seconds:
                break
        if probes is not None:
            probes.catch_up(1.0)

    def gates(self) -> list:
        import gates as G
        results = []
        if not self.failures:
            try:
                results = self.w.gates()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                results = [G.Gate("gates raised", False, "see stderr")]
            results.append(G.identical("outputs byte-identical across iterations",
                                       self.digests))
        self.attempted += len(results)
        return results


def run_workload(args) -> int:
    try:
        import_tilediff()
        from workloads import WORKLOADS, load_reference
    except ImportError as exc:
        return fail(str(exc))
    spec = benchmark_spec()
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    probes = None if args.trace else SetupProbes(args.workload, SETUP_PROBES)

    TMP.mkdir(exist_ok=True)
    saved_outdir = os.environ.get("TILEDIFF_OUTDIR")
    with tempfile.TemporaryDirectory(dir=TMP) as tmp:
        os.environ["TILEDIFF_OUTDIR"] = tmp
        try:
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, Path(tmp), load_reference())
            run = Run(workload, args.seconds, bool(args.trace))
            t1 = time.perf_counter()
            run.loop(probes)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            t2 = time.perf_counter()
            gate_results = run.gates()
            phases = {"inputs": t1 - t0, "loop": t2 - t1, "gates": time.perf_counter() - t2}
        finally:
            if saved_outdir is None:
                os.environ.pop("TILEDIFF_OUTDIR", None)
            else:
                os.environ["TILEDIFF_OUTDIR"] = saved_outdir
    try:
        TMP.rmdir()
    except OSError:
        pass

    failed = len(run.failures) + sum(not g.ok for g in gate_results)
    untraced = run.times[False]
    wall = statistics.median(untraced)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "radius_level": workload.level, "work_unit": workload.work_unit,
        "work_per_iteration": workload.work(),
        "iterations": {"untraced": len(untraced), "traced": len(run.times[True])},
        "wall_s_quartiles": quartiles(untraced),
        "phases_s": phases,
        "failed_ratio": failed / run.attempted,
        "failed_commands": run.failures,
        "gates": [{"name": g.name, "ok": g.ok, "detail": g.detail} for g in gate_results],
        "machine": machine(args.seed),
    }
    if args.trace:
        from spans import EXPECTED, median_values
        traced_iters = sorted({sp.iteration for sp in run.recorder.spans})
        values = median_values([run.recorder.layer_values(i) for i in traced_iters])
        traced_wall = statistics.median(run.times[True])
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - wall
        expected = spec["per_layer"]
        report["self_time_s"] = run.recorder.self_times()
        report["samples"] = len(run.times[True])
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps({"report": report, "expected_moves": EXPECTED,
                                          "spans": run.recorder.to_json()}) + "\n")
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        setup = probes.times
        values = {"wall_s": wall, "setup_s": statistics.median(setup),
                  "work_per_s": workload.work() / wall, "peak_rss_mb": peak_rss_mb,
                  "ok_ratio": 1.0 - failed / run.attempted}
        expected = spec["end_to_end"]
        report["samples"] = {"wall_s": len(untraced), "setup_s": len(setup),
                             "work_per_s": len(untraced), "peak_rss_mb": 1,
                             "ok_ratio": run.attempted}
        report["setup_s_values"] = setup
    units = {m["name"]: m["unit"] for m in expected}
    if set(values) != set(units):
        return fail(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    for g in gate_results:
        print(f"gate {'ok  ' if g.ok else 'FAIL'} {g.name}: {g.detail}")
    for name in units:
        print(f"{name:40s} {values[name]:>14.6g} {units[name]}")
    print("report " + json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}))
    return 0


# -- all workloads, and the self-test ------------------------------------------

def run_all(args) -> int:
    """Each workload in a fresh child process; prints one table."""
    try:
        import_tilediff()
        from workloads import SEPARATE
    except ImportError as exc:
        return fail(str(exc))
    rows, merged, ok = [], {}, True
    attempted = failed = 0
    for name in SEPARATE:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            return fail(f"{name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        report = json.loads(lines[-2][len("report "):])
        ok &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        samples = report["samples"]
        for metric, v in result["metrics"].items():
            n = samples.get(metric, 1) if isinstance(samples, dict) else samples
            rows.append(f"{name:16s} {metric:40s} {v['value']:>14.6g} {v['unit']:8s} n={n}")
            merged[f"{name}.{metric}"] = v
        rows.append(f"{name:16s} {'failed_ratio':40s} {report['failed_ratio']:>14.6g} "
                    f"{'ratio':8s} n={result['attempted']}")
    print("\n".join(rows))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    for key in BLAS_ENV:  # at most one BLAS thread per core, recorded in the report
        os.environ.setdefault(key, str(len(os.sched_getaffinity(0))))
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.self_test:
        try:
            import_tilediff()
        except ImportError as exc:
            return fail(str(exc))
        from selftest import self_test
        return self_test()
    if not args.workload:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
