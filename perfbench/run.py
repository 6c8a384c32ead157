"""Benchmark of the vidconv training and inference paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload toy-train --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing but a clock around
the program; ``--trace 1`` runs untraced for half the time, then traced, and
reports the per-layer metrics and the tracing overhead. Metric names and units
come from ``BENCHMARK.json``. The last line of standard output is one JSON
object; a fuller record with the environment goes to
``perfbench/out/BENCH_<workload>_trace<t>.json``. Each workload runs in a
fresh process, so ``peak_rss_mb`` is per workload.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 0
WORKLOAD_NAMES = ("toy-train", "tiny-eval-224", "tiny-train-96")
# Builds per run for setup_s; its median damps one slow allocation.
SETUP_REPS = 3
# p90 is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced inputs for the benchmark's own tests; skips the reference check")
    ap.add_argument("--record-reference", action="store_true",
                    help=f"store the warm-up outputs of seed {REFERENCE_SEED} as the reference")
    return ap.parse_args(argv)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def emit(spec_metrics, values):
    """Metrics in the order and with the units ``BENCHMARK.json`` declares."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"benchmark produced no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


class Tally:
    """Steps or forwards attempted, and those that raised or failed a check."""

    def __init__(self, failures):
        self.failures = failures
        self.attempted = 0
        self.errors = []

    def attempt(self, wl, fn):
        done = len(wl.step_s)
        try:
            return fn()
        except self.failures as exc:
            self.errors.append(f"{type(exc).__name__}: {exc}")
            print(f"# failed: {self.errors[-1]}", flush=True)
            self.attempted += 1
            return None
        finally:
            self.attempted += len(wl.step_s) - done


def measure(wl, tally, seconds):
    """Run units for ``seconds`` (at least one); wall time, steps, clips."""
    steps0, clips0 = len(wl.step_s), wl.clips
    t0 = time.perf_counter()
    while True:
        tally.attempt(wl, wl.run_unit)
        wall = time.perf_counter() - t0
        if wall >= seconds:
            return wall, wl.step_s[steps0:], wl.clips - clips0


def reference_problem(name, got, args):
    """What is wrong with the warm-up outputs of the reference seed, or None."""
    from perfbench.workloads import reference_mismatch

    if args.smoke or args.seed != REFERENCE_SEED:
        return None
    refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    if args.record_reference:
        refs[name] = got
        REFERENCE.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
        return None
    if name not in refs:
        return f"no reference recorded for {name}"
    if got is None:
        return "warm-up failed; nothing to compare with the reference"
    return reference_mismatch(got, refs[name])


def run_one(args, spec):
    if not (ROOT / "src" / "vidconv").is_dir():
        print(f"error: no vidconv sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from vidconv.errors import NumericsError
    from perfbench import envinfo, tracer, workloads
    import_s = time.perf_counter() - _T0

    wl = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    tally = Tally((NumericsError, workloads.CheckFailed))
    build_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.build()
        build_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    got = tally.attempt(wl, wl.warmup)
    setup_s = import_s + statistics.median(build_s) + time.perf_counter() - t0
    del wl.step_s[:]
    wl.clips = 0
    problems = [p for p in (reference_problem(wl.name, got, args),) if p]

    try:
        if args.trace:
            wall, steps, _ = measure(wl, tally, args.seconds / 2)
            untraced_unit_s = wall / max(1, len(steps))
            tr = tracer.Tracer().install()
            try:
                wall, steps, _ = measure(wl, tally, args.seconds / 2)
            finally:
                tr.uninstall()
            mismatch = tr.mac_mismatch()
            if mismatch:
                problems.append(mismatch)
            values = tr.metrics(max(1, len(steps)), wall, untraced_unit_s)
            metrics = emit(spec["per_layer"], values)
        else:
            wall, steps, clips = measure(wl, tally, args.seconds)
            step_ms = [s * 1e3 for s in steps]
            values = {
                "setup_s": setup_s,
                "step_ms_p50": statistics.median(step_ms) if step_ms else 0.0,
                "clips_per_s": clips / wall,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = emit(spec["end_to_end"], values)
            # The same figures under the per-workload names they stand for.
            kind = "train_step" if wl.unit == "train step" else "eval_clip"
            values[f"{kind}_ms_p50"] = values["step_ms_p50"]
            if len(step_ms) >= P90_MIN_SAMPLES:
                values[f"{kind}_ms_p90"] = statistics.quantiles(step_ms, n=10)[-1]
            values[f"{kind.split('_')[0]}_clips_per_s"] = values["clips_per_s"]
    finally:
        wl.close()

    failed = len(tally.errors)
    values["failed_frac"] = failed / max(1, tally.attempted)
    result = {"correct": failed == 0 and not problems, "attempted": max(1, tally.attempted),
              "failed": failed, "metrics": metrics}
    record = {"workload": wl.name, "unit": wl.unit, "trace": args.trace,
              "seconds": args.seconds, "smoke": args.smoke,
              "step_ms": [s * 1e3 for s in steps],
              "setup": {"import_s": import_s, "build_s": build_s},
              "environment": envinfo.environment(ROOT, args.seed),
              "problems": problems, "errors": tally.errors, "values": values, "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"BENCH_{wl.name}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {wl.name} seed={args.seed} trace={args.trace} unit={wl.unit} samples={len(steps)}")
    for problem in problems:
        print(f"# check failed: {problem}")
    for name, m in metrics.items():
        print(f"{wl.name:14s} {name:34s} {m['value']:14.4f} {m['unit']}")
    print(f"{wl.name:14s} {'failed_frac':34s} {values['failed_frac']:14.4f} "
          f"({failed} of {tally.attempted})")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Each workload in its own process; every metric by name, then JSON.

    A workload that crashes is reported and the others still run.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    crashed = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("\n".join(lines), flush=True)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            crashed.append(name)
            continue
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    combined["correct"] = combined["correct"] and not crashed
    print(json.dumps(combined), flush=True)
    return 1 if crashed else 0


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args, load_spec())


if __name__ == "__main__":
    sys.exit(main())
