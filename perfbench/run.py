"""Pipeline benchmark for somcell: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: corpus-bench, large-solve, model-reuse, exact-oracle (see
``workloads.py`` and ``BENCHMARK.json`` for why each exists). The package is
imported from ``src/`` of the same checkout; nothing is installed.

With ``--trace 0`` the run sets up three times (reporting the median), then
runs rounds of ops for about S seconds with tracing off and reports the
end-to-end metrics. Their times are scaled to a reference host speed by a
calibration loop run between the timed intervals (``calibrate.py``), because
the speed of a shared host drifts by more than the metrics' bounds. With
``--trace 1`` it runs a fixed number of rounds (sized to take about 20 s),
each once untraced and once traced (plus, on corpus-bench, once untraced at
``--jobs 1``), and reports the per-layer metrics from the spans, in wall
time; with the round count fixed, every count repeats exactly for a seed.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

T0 = time.perf_counter()  # process start, as near as the script can see it

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import somcell from this checkout's ``src/``, or fail with a message."""
    src = ROOT / "src"
    if not (src / "somcell" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'somcell'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import somcell
    import somcell.cli  # noqa: F401  (submodules the workloads and tracer reach)

    if Path(somcell.__file__).resolve().parent != (src / "somcell").resolve():
        raise SystemExit(f"error: imported somcell from {somcell.__file__}, not from {src}")
    return somcell


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "somcell").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cache_bytes() -> dict:
    """L2 and L3 sizes of cpu0 from sysfs, where the platform exposes them."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            out[f"l{level}_bytes"] = int(size.rstrip("KM")) * scale
    return out


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it, or None."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


@dataclass
class Pass:
    """Totals over rounds."""

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def add(self, r) -> None:
        self.rounds += 1
        self.attempted += r.attempted
        self.failed += r.failed
        self.busy_s += r.busy_s
        self.latencies += r.latencies
        self.failures += r.failures


def run_rounds(budget_s, min_rounds, step):
    """Call ``step(index)`` for whole rounds: at least ``min_rounds``, then while the next should fit."""
    start = time.perf_counter()
    index = 0
    while True:
        t = time.perf_counter()
        step(index)
        index += 1
        now = time.perf_counter()
        if index >= min_rounds and now - start + (now - t) > budget_s:
            return index


def say(text):
    print(text, flush=True)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, seconds, setup_s, clock):
    p = Pass()
    clock.restart_totals()
    run_rounds(seconds, wl.MIN_ROUNDS, lambda i: p.add(wl.run_round(clock, i)))
    final = wl.finish(p.rounds)
    attempted, latencies = p.attempted, p.latencies
    failed = min(attempted, p.failed + final.failed)
    failures = p.failures + final.failures
    share = failed / attempted
    ops_per_s = attempted / p.busy_s
    p50 = statistics.median(latencies) if latencies else 0.0  # every op failed
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ratio = wl.efficacy_ratio()
    say(f"rounds {p.rounds}, ops {attempted}, program time {clock.raw_s:.3f} s wall, {p.busy_s:.3f} s at"
        f" reference speed (mean host factor {clock.raw_s / clock.scaled_s:.4f};"
        f" calibration {clock.calibration_s:.3f} s)")
    say(f"ops_per_s {ops_per_s:.6g} 1/s (wall clock {attempted / clock.raw_s:.6g})")
    say(f"op_p50_s {p50:.6g} s")
    t = tail(latencies)
    if t is None:
        say(f"op_tail_s n/a s ({len(latencies)} samples; a tail needs at least 11)")
    else:
        say(f"op_tail_s {t[0]:.6g} s (p{t[1]:.1f}, {t[2]} samples, 10 beyond)")
    say(f"efficacy_ratio {ratio:.6g} ratio")
    say(f"failed_share {share:.6g} ratio ({failed} of {attempted})")
    say(f"peak_rss_mb {rss_mb:.6g} MB")
    values = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "op_p50_s": p50,
        "efficacy_ratio": ratio,
        "ok_share": 1.0 - share,
        "peak_rss_mb": rss_mb,
    }
    units = spec_units("end_to_end", values)
    return attempted, failed, failures, {name: metric(v, units[name]) for name, v in values.items()}


def traced(wl, somcell, trace_path):
    """Each round untraced and traced, and the per-layer metrics of the traced rounds."""
    import tracing
    from calibrate import Stopwatch

    tracer = tracing.Tracer()
    targets = tracing.targets(somcell)
    untraced, serial, traced_pass = Pass(), Pass(), Pass()
    wall = Stopwatch()

    class OpClock(Stopwatch):
        """Wall time, and a new op id for the spans of each timed interval."""

        def begin(self):
            tracer.op += 1
            super().begin()

    def step(index):
        """One round untraced, at --jobs 1 on corpus-bench, then traced; alternating evens out drift."""
        untraced.add(wl.run_round(wall, index))
        if wl.name == "corpus-bench":
            wl.jobs = 1  # the single-threaded baseline of the same corpus
            serial.add(wl.run_round(wall, index))
            wl.jobs = wl.nproc
        tracer.install(targets)
        try:
            traced_pass.add(wl.run_round(OpClock(), index))
        finally:
            tracer.uninstall()

    rounds = run_rounds(0.0, wl.TRACE_ROUNDS, step)
    passes = (untraced, serial, traced_pass)
    final = wl.finish(sum(p.rounds for p in passes))
    attempted = sum(p.attempted for p in passes)
    failed = min(attempted, sum(p.failed for p in passes) + final.failed)
    failures = [f for p in passes for f in p.failures] + final.failures
    speedup = serial.busy_s / untraced.busy_s if serial.rounds else 0.0
    tracer.write(trace_path)
    traced_s, untraced_s = traced_pass.busy_s, untraced.busy_s
    m = tracing.layer_metrics(tracer.spans, traced_s, traced_pass.attempted)
    m["cli.parallel_speedup"] = speedup
    m["trace.overhead_share"] = traced_s / untraced_s - 1.0
    say(f"rounds {rounds} per pass; untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    self_sum = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    say(
        f"traced wall {m['trace.wall_s']:.4f} s = layer self {self_sum:.4f} s"
        f" - thread overlap {m['trace.overlap_s']:.4f} s + unaccounted {m['trace.unaccounted_s']:.4f} s"
    )
    units = spec_units("per_layer", m)
    for name in sorted(m):
        say(f"{name} {m[name]:.6g} {units[name]}")
    return attempted, failed, failures, {name: metric(m[name], units[name]) for name in sorted(m)}


def spec_units(kind, values) -> dict:
    """Units of the ``kind`` metrics in BENCHMARK.json, which must name exactly ``values``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {entry["name"]: entry["unit"] for entry in spec[kind]}
    if set(units) != set(values):
        raise RuntimeError(f"BENCHMARK.json {kind} names differ from the measured set: "
                           f"{sorted(set(units) ^ set(values))}")
    return units


def main(argv=None) -> int:
    args = parse_args(argv)
    somcell = import_package()
    import numpy as np
    from calibrate import HostClock, Stopwatch
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    out_dir = HERE / "_work"
    work = out_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    import_s = time.perf_counter() - T0

    try:
        wl = WORKLOADS[args.workload](somcell, ROOT, work, args.seed, nproc)
        clock = Stopwatch() if args.trace else HostClock()
        import_s /= clock.factor()  # imports at the first host factor measured
        setups = []
        for _ in range(SETUP_REPEATS if not args.trace else 1):
            clock.begin()
            wl.setup()
            setups.append(clock.end())
        setup_s = import_s + statistics.median(setups)
        context = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "git_revision": git_revision(), "source_sha256": source_digest(),
            "backend": somcell.kernels.BACKEND, "nproc": nproc,
            "python": platform.python_version(), "numpy": np.__version__,
            "working_set": wl.working_set(), **cache_bytes(),
        }
        say("context " + json.dumps(context))
        say(f"setup_s {setup_s:.6g} s (imports {import_s:.4f} s + median of set-ups "
            f"{', '.join(f'{s:.4f}' for s in setups)} s)")
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            attempted, failed, failures, metrics = traced(wl, somcell, trace_path)
            say(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            attempted, failed, failures, metrics = end_to_end(wl, args.seconds, setup_s, clock)
        say(f"digest {args.workload} sha256:{wl.digest()}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in failures:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"context": context, "digest": wl.digest(), "failures": failures, **result}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
