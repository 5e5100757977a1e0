#!/usr/bin/env python3
"""The erlangen benchmark: library trial throughput, time to verdict and
CLI wall time, with a correctness gate and an optional traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference

Run from a checkout: the package is imported from ``src/``, nothing is
installed.  One process, one caller: library calls run in this process
and CLI invocations as one child process at a time, with BLAS pinned to
one thread here and in every child.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Workloads, metrics and the layer map are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 60
# A shared host's speed swings by 20-40% over minutes, so the gated timings
# are in units of a yardstick: fixed work with no erlangen code, timed
# right before each operation, so that a swing moves both alike.  The
# process yardstick shares the CLI's start-up work (interpreter, site,
# numpy); the library yardstick mixes small-matrix LAPACK calls with
# Python arithmetic, as the library's trial loops do.
PROCESS_YARDSTICK = [sys.executable, "-c", "import numpy"]


class LibraryYardstick:
    """The in-process yardstick: the same fixed work on every call."""

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.mats = [rng.normal(size=(3, 3)) for _ in range(64)]
        self.shift = 3 * np.eye(3)

    def __call__(self) -> float:
        """Seconds of one pass over the fixed work."""
        la = self.np.linalg
        t0 = time.perf_counter()
        for a in self.mats:
            la.det(a)
            la.svd(a)
            la.inv(a + self.shift)
            a @ a.T
            s = 0
            for i in range(150):
                s += i * i % 7
        return time.perf_counter() - t0


def p50(values):
    return statistics.median(values)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def fastest_ms(units) -> dict:
    """Each operation's fastest time over the rounds (or tours) it ran in;
    ``units`` is a list of {operation index: ms}."""
    best = {}
    for unit in units:
        for op, ms in unit.items():
            best[op] = min(ms, best.get(op, ms))
    return best


def median_per_op(units) -> dict:
    """Each operation's median over the rounds (or tours) it ran in;
    ``units`` is a list of {operation index: value}."""
    per = {}
    for unit in units:
        for op, value in unit.items():
            per.setdefault(op, []).append(value)
    return {op: p50(values) for op, values in per.items()}


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), **BLAS_PINS)


def run_child(cmd):
    """Run one child to completion; (wall seconds, CompletedProcess)."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def read_report(path: Path) -> dict:
    with open(path) as f:
        out = json.load(f)
    path.unlink()
    return out


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = {}
    for mod in (numpy, scipy):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[mod.__name__] = f"{info['name']} {info['version']}"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_PINS}


class Bench:
    """One run of one workload: the schedule, the checks and the records."""

    def __init__(self, workload: str, seed: int, trace: bool, reference):
        import spans
        import workloads as wl

        self.wl, self.spans = wl, spans
        self.workload, self.spec = workload, wl.WORKLOADS[workload]
        self.seed, self.trace = seed, trace
        self.reference = reference  # {op: digest} for the first cycle, or None
        self.digests = {}
        self.attempted = self.failed = 0
        self.prepared = wl.setup(workload)
        self.round_ms = []  # per library round: {job index: ms}
        self.round_rel = []  # per untraced round: {job index: call / yardstick time}
        self.lib_yardstick = None if trace else LibraryYardstick()
        self.tour_ms = []  # per CLI tour: {step index: wall ms}
        self.tour_rel = []  # per untraced CLI tour: {step index: wall / yardstick wall}
        self.setup_s = []  # one fresh set-up process per CLI tour
        self.lib_s = self.cli_s = 0.0
        if trace:
            self.tracer = spans.Tracer()
            self.traced = [(self.tracer.group(p.group), p.prop and self.tracer.prop(p.prop))
                           for p in self.prepared]
            self.totals = spans.new_totals()
            self.cycle0 = spans.new_totals()
            self.cycle0_spans = []
            self.untraced_s = self.traced_s = 0.0
            self.cli_parts = []  # (verb, import_ms, startup_ms, main_ms)

    # -- bookkeeping -----------------------------------------------------------

    def fail(self, op: str, why: str):
        self.failed += 1
        sys.stderr.write(f"FAIL {op} (seed {self.seed}): {why}\n")

    def digest(self, op: str, first: bool, digest: str):
        if not first:
            return
        self.digests[op] = digest
        if self.reference is not None and self.reference.get(op) != digest:
            self.fail(op, f"output digest {digest} differs from the reference "
                          f"{self.reference.get(op)}")

    def keep_spans(self, spans, first: bool, job: str = None):
        self.spans.fold(spans, self.totals)
        if first:
            self.spans.fold(spans, self.cycle0)
            base = len(self.cycle0_spans)
            self.cycle0_spans.extend(
                (name, t0, t1, parent + base if parent >= 0 else -1, job or label, extra)
                for name, t0, t1, parent, label, extra in spans)

    # -- library rounds --------------------------------------------------------

    def lib_round(self, r: int):
        if not self.trace:
            self._lib_pass(r, None)
            return
        order = (False, True) if r % 2 == 0 else (True, False)
        for traced in order:
            t0 = time.perf_counter()
            if traced:
                self.tracer.install()
                try:
                    self._lib_pass(r, self.traced)
                finally:
                    self.tracer.uninstall()
                self.keep_spans(self.tracer.take(), r == 0)
                self.traced_s += time.perf_counter() - t0
            else:
                self._lib_pass(r, None)
                self.untraced_s += time.perf_counter() - t0

    def _lib_pass(self, r: int, traced):
        """One pass over the cells; an untraced pass records each call's
        time, and in an untraced run also its ratio to the yardstick."""
        wl = self.wl
        ms, rel = {}, {}
        for j, p in enumerate(self.prepared):
            job = p.job
            seed = wl.derive(self.seed, "lib", r, j)
            config = wl.orbit_config(job, seed)
            group, prop = traced[j] if traced else (p.group, p.prop)
            if traced:
                self.tracer.job = f"r{r}:{job.name}"
            ruler = self.lib_yardstick() if self.lib_yardstick and not traced else None
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = wl.call(job, group, prop, seed, config)
            except Exception as exc:  # any exception is a failed operation
                self.fail(job.name, f"{type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            problem, digest = wl.check(job, result, config)
            if problem:
                self.fail(job.name, problem)
                continue
            self.digest(f"lib:{job.name}", r == 0, digest)
            ms[j] = dt * 1e3
            if ruler is not None:
                rel[j] = dt / ruler
        if not traced:
            self.round_ms.append(ms)
        if rel:
            self.round_rel.append(rel)

    # -- CLI tours -------------------------------------------------------------

    def setup_probe(self):
        report = OUT / "setup.json"
        _, proc = run_child([sys.executable, str(HERE / "child.py"), "setup",
                             str(report), self.workload])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr.decode()}")
        self.setup_s.append(read_report(report)["setup_s"])

    def process_yardstick(self) -> float:
        """Wall seconds of one run of the yardstick process."""
        wall, proc = run_child(PROCESS_YARDSTICK)
        if proc.returncode != 0:
            raise RuntimeError(f"yardstick process failed:\n{proc.stderr.decode()}")
        return wall

    def cli_tour(self, t: int, deadline: float = math.inf):
        """Run the CLI tour once; a tour after the first stops at the deadline.
        Untraced tours also time one fresh set-up process, so set-up is
        sampled across the whole run like everything else, and the
        yardstick process before each invocation."""
        wl = self.wl
        report = OUT / "cli.json"
        walls, rel = {}, {}
        if not self.trace:
            self.setup_probe()
        for i, step in enumerate(wl.CLI_TOUR):
            if t and time.perf_counter() >= deadline:
                break
            argv = wl.cli_argv(self.seed, t, i)
            op = f"cli:{i}:{step.verb}"
            code, verdict = step.expect(t)
            if self.trace:
                cmd = [sys.executable, str(HERE / "child.py"), "cli", str(report)] + argv
            else:
                cmd = [sys.executable, "-m", "erlangen.cli"] + argv
            ruler = None if self.trace else self.process_yardstick()
            self.attempted += 1
            try:
                wall, proc = run_child(cmd)
            except subprocess.TimeoutExpired:
                self.fail(op, f"no exit within {CHILD_TIMEOUT_S} s")
                continue
            trailer = [ln for ln in proc.stdout.decode().splitlines()
                       if ln.startswith("RESULT:")]
            got = trailer[-1].split()[1] if trailer else None
            if proc.returncode != code or got != verdict:
                self.fail(op, f"exit {proc.returncode} verdict {got}, expected exit "
                              f"{code} verdict {verdict}: {' '.join(argv)}\n"
                              f"{proc.stderr.decode()}")
                continue
            self.digest(op, t == 0, self.wl.sha(proc.stdout + b"exit=%d" % proc.returncode))
            walls[i] = wall * 1e3
            if ruler is not None:
                rel[i] = wall / ruler
            if self.trace:
                rep = read_report(report)
                spans = [tuple(s) for s in rep["spans"]]
                self.keep_spans(spans, t == 0, f"t{t}:{op}")
                imp, main = rep["import_ns"] / 1e6, rep["main_ns"] / 1e6
                self.cli_parts.append((step.verb, imp, wall * 1e3 - imp - main, main))
        self.tour_ms.append(walls)
        if rel:
            self.tour_rel.append(rel)

    # -- the measured window ---------------------------------------------------

    def measure(self, seconds: float):
        """Alternate library rounds and CLI tours, keeping the CLI near its
        share of the time, until ``seconds`` have passed and at least one
        of each has run (the first cycle)."""
        share = self.spec.cli_share
        r = t = 0
        deadline = time.perf_counter() + seconds
        while not (r and t and time.perf_counter() >= deadline):
            t0 = time.perf_counter()
            if r == 0 or (t and self.cli_s >= share * (self.lib_s + self.cli_s)):
                self.lib_round(r)
                r += 1
                self.lib_s += time.perf_counter() - t0
            else:
                self.cli_tour(t, deadline)
                t += 1
                self.cli_s += time.perf_counter() - t0
        return r, t

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self):
        """Gated timings are each operation's median ratio to the yardstick
        run just before it, which the host's speed swings move little."""
        out, notes = {}, {}
        rel = median_per_op(self.round_rel)
        rounds = len(self.round_rel)
        self.rates(out, notes, rel, "yardstick", 1.0,
                   f"each at its median over {rounds} rounds of call / yardstick time")
        out["verdict_rel_p50"] = (p50(list(rel.values())), "ratio")
        notes["verdict_rel_p50"] = (f"p50 over {len(rel)} cells of each cell's median over "
                                    f"{rounds} rounds of call / yardstick time")
        steps = median_per_op(self.tour_rel)
        out["cli_wall_rel_gmean"] = (statistics.geometric_mean(steps.values()), "ratio")
        notes["cli_wall_rel_gmean"] = (
            f"geometric mean over {len(steps)} tour steps of each step's median over "
            f"{len(self.tour_rel)} tours of its wall / the yardstick process's wall")
        out["setup_s"] = (p50(self.setup_s), "s")
        notes["setup_s"] = f"median of {len(self.setup_s)} fresh processes"
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        notes["peak_rss_mb"] = "this process"
        return out, notes

    def rates(self, out, notes, per_cell, per, scale, how):
        """The three library rates from each cell's time (ms, or yardsticks
        with ``scale`` 1), as ``<what>_per_<per>``."""
        jobs = [p.job for p in self.prepared]
        for what, kind in (("axioms_trials", "axioms"), ("invariance_trials", "invariance"),
                           ("orbit_images", "orbit")):
            # a violated cell stops at its witness, so it gives no rate
            cells = [j for j in per_cell
                     if jobs[j].kind == kind and jobs[j].expect != "violated"]
            name = f"{what}_per_{per}"
            out[name] = (sum(jobs[j].trials for j in cells) * scale
                         / sum(per_cell[j] for j in cells), f"1/{per}")
            notes[name] = f"{len(cells)} cells, {how}"

    def fastest_quantile(self, out, notes, name, q, fn):
        """Verdict time (``verdict_ms``) or CLI wall time (``cli_wall_ms``)
        at quantile ``q`` over operations, each at its fastest repetition;
        traced runs time the CLI with the tracer installed."""
        units, what = ((self.round_ms, "untraced library rounds") if name == "verdict_ms"
                       else (self.tour_ms, "CLI tours"))
        times = list(fastest_ms(units).values())
        out[f"{name}_{q}"] = (fn(times), "ms")
        notes[f"{name}_{q}"] = (f"{q} over {len(times)} operations, each at its "
                                f"fastest of {len(units)} {what}")

    def per_layer(self):
        layers, first = self.totals["layers"], self.cycle0["layers"]
        out, notes = {}, {}
        self.rates(out, notes, fastest_ms(self.round_ms), "s", 1e3,
                   f"each at its fastest of {len(self.round_ms)} untraced rounds")
        self.fastest_quantile(out, notes, "verdict_ms", "p50", p50)

        def calls(name):
            out[f"{name}.calls"] = (first.get(name, [0])[0], "count")
            notes[f"{name}.calls"] = "calls in the first cycle"

        def us(name):
            n, total, _ = layers.get(name, [0, 0, 0])
            out[f"{name}.us"] = (total / n / 1e3 if n else 0.0, "us")
            notes[f"{name}.us"] = f"mean per call over {n} calls"

        for name in ("numerics.rng_from", "numerics.mix_seed", "groups.sample",
                     "groups.contains", "properties.evaluate"):
            calls(name)
        for name in ("numerics.rng_from", "groups.sample", "groups.contains",
                     "groups.transform_configuration", "properties.sample_config",
                     "properties.evaluate", "transfers.random_map",
                     "moebius.random_moebius", "reports.serialize_report"):
            us(name)
        trials = self.totals["trials"]
        engine_self = layers.get(self.spans.ENGINE, [0, 0, 0])[2]
        out["groups.engine.self_us_per_trial"] = (engine_self / trials / 1e3, "us")
        notes["groups.engine.self_us_per_trial"] = f"over {trials} trials"
        inv = self.totals["inv_trials"]
        out["properties.skip_ratio"] = (self.totals["inv_skipped"] / inv, "ratio")
        notes["properties.skip_ratio"] = f"of {inv} invariance trials"
        parts = self.cli_parts
        out["cli.import_ms"] = (p50([p[1] for p in parts]), "ms")
        out["cli.startup_ms"] = (p50([p[2] for p in parts]), "ms")
        notes["cli.import_ms"] = notes["cli.startup_ms"] = f"median of {len(parts)} processes"
        for verb in self.wl.CLI_VERBS:
            mains = [p[3] for p in parts if p[0] == verb]
            out[f"cli.main_ms.{verb}"] = (p50(mains), "ms")
            notes[f"cli.main_ms.{verb}"] = f"median of {len(mains)} processes"
        self.fastest_quantile(out, notes, "verdict_ms", "p90", p90)
        self.fastest_quantile(out, notes, "cli_wall_ms", "p50", p50)
        self.fastest_quantile(out, notes, "cli_wall_ms", "p90", p90)
        out["trace.overhead_pct"] = ((self.traced_s / self.untraced_s - 1) * 100, "%")
        notes["trace.overhead_pct"] = "traced vs untraced library passes on the same inputs"
        return out, notes

    def write_spans(self, path: Path):
        with open(path, "w") as f:
            for name, t0, t1, parent, job, _extra in self.cycle0_spans:
                f.write(json.dumps([name, t0, t1, parent, job]) + "\n")


def load_reference(workload: str, seed: int):
    with open(REFERENCE) as f:
        ref = json.load(f)
    return ref["workloads"][workload] if seed == ref["seed"] else None


def record_reference():
    import workloads as wl

    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in wl.WORKLOADS:
        bench = Bench(name, DEFAULT_SEED, False, None)
        bench.lib_round(0)
        bench.cli_tour(0)
        if bench.failed:
            raise SystemExit(f"{name}: {bench.failed} failed operations, nothing recorded")
        out["workloads"][name] = bench.digests
    with open(REFERENCE, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record the default seed's output digests and exit")
    args = parser.parse_args(argv)

    if not (SRC / "erlangen" / "__init__.py").is_file():
        sys.stderr.write(f"no erlangen package under {SRC}: run from a checkout\n")
        return 2
    os.environ.update(BLAS_PINS)  # before numpy loads; children get them too
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    # compiled modules exist for every user after the first run; do not time compiling
    compileall.compile_dir(SRC, quiet=1)

    import workloads as wl

    if args.record_reference:
        record_reference()
        return 0
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")

    bench = Bench(args.workload, args.seed, bool(args.trace),
                  load_reference(args.workload, args.seed))
    rounds, tours = bench.measure(args.seconds)
    if args.trace:
        metrics, notes = bench.per_layer()
        bench.write_spans(OUT / f"{args.workload}.spans.jsonl")
    else:
        metrics, notes = bench.end_to_end()

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {rounds} library rounds, "
          f"{tours} CLI tours, failed_ratio {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} ({notes[name]})")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
