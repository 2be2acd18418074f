"""sdckit benchmark: four closed-loop workloads and a traced per-layer run.

Run from anywhere inside a checkout of the repository:

    python3 benchmark/run.py --workload rsdc-n80 --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --smoke

A run sets up its workload several times (a fresh interpreter importing
sdckit, then generating the seeded input list) and reports the median,
warms up with one operation, then walks the input list in whole rounds,
one operation at a time (a closed loop with one caller), until the time
spent inside operations reaches --seconds and at least MIN_OPS
operations have run.  Times are reported at reference speed (speed.py).
Outputs are checked after each round, outside the timed operations.
The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  --trace 1 alternates untraced and traced rounds, so its
overhead is measured on the same inputs.  Each result is also written
under benchmark/results/, with the spans of a traced run.

--smoke runs every workload on a reduced input list, one untraced and
one traced round, with every check on, and prints one line per workload.
"""

import os

# One BLAS/OpenMP thread.  This must happen before numpy is first
# imported: OpenBLAS sizes its pool when it loads, and its default
# two-thread pool on matrices of order 20 to 80 spreads per-operation
# times several-fold (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("qcqp-grid", "reform-verify", "rsdc-n80", "small-families")

MIN_OPS = 40  # the tail percentile needs ten operations beyond it
TAIL_BEYOND = 10
IMPORT_REPS = 5  # the import time is the noisier part of set-up
GENERATE_REPS = 3

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sdckit; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import sdckit (numpy and scipy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.split()[-1])


def margin_digits(worst) -> float:
    """Median over the items with a certificate of -log10(residual / bound).

    The median, not the worst item: the worst of a few seeded instances
    swings by digits between seeds, while the typical margin moves only
    when the program spends or gains accuracy.
    """
    return statistics.median(-math.log10(max(w, 1e-300)) for w in worst if w is not None)


def timing_metrics(ms: list[float]) -> dict:
    """ops_per_s, op_ms_p50 and op_ms_tail of per-operation times in ms.

    The tail is the highest percentile with TAIL_BEYOND operations beyond
    it, and is left out of a run with fewer than MIN_OPS operations.
    """
    ms = sorted(ms)
    out = {
        "ops_per_s": {"value": len(ms) / (sum(ms) / 1000.0), "unit": "op/s"},
        "op_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
    }
    if len(ms) >= MIN_OPS:
        out["op_ms_tail"] = {"value": ms[-1 - TAIL_BEYOND], "unit": "ms"}
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Set up, run and check one workload.

    Returns (summary, end-to-end metrics, per-layer metrics or None,
    raw figures, tracer).  Times in the metrics are at reference speed
    (see speed.py); the raw figures are as the clock read them.
    """
    from speed import SpeedProbe
    from tracing import Tracer
    from workloads import WORKLOADS

    probe = SpeedProbe()
    imports, raw_imports = [], []
    for _ in range(1 if smoke else IMPORT_REPS):
        # the child reports its own import time; scale it like the call
        reported, raw, scaled = probe.timed(import_seconds)
        raw_imports.append(reported)
        imports.append(reported * scaled / raw)
    generation, raw_generation = [], []
    for _ in range(1 if smoke else GENERATE_REPS):
        workload = WORKLOADS[name]()
        items, raw, scaled = probe.timed(workload.inputs, seed, smoke)
        raw_generation.append(raw)
        generation.append(scaled)
    setup_s = statistics.median(imports) + statistics.median(generation)

    try:
        workload.run(items[0])  # warm-up: lazy loads and first-call set-up
    except Exception:
        pass  # the same item fails again inside the run and is counted there

    tracer = Tracer() if trace else None
    spans = []  # (traced, start, end) of every operation, by operation index
    failed = 0
    errors = []
    # worst certificate residual / bound of each item; None: no residual
    worst = [None] * len(items)
    rounds = 0
    min_rounds = 2 if trace else 1  # a traced run needs an untraced round too
    busy = 0.0
    while True:
        traced = trace and rounds % 2 == 1
        outputs = []
        if traced:
            tracer.install()
        try:
            for i, item in enumerate(items):
                probe.sample()
                t0 = time.perf_counter()
                try:
                    if traced:
                        out = tracer.operation(len(spans), workload.run, item)
                    else:
                        out = workload.run(item)
                except Exception:
                    out = None
                    failed += 1
                    errors.append(traceback.format_exc(limit=3))
                t1 = time.perf_counter()
                probe.sample()
                spans.append((traced, t0, t1))
                busy += t1 - t0
                outputs.append((i, out))
        finally:
            if traced:
                tracer.remove()
        for i, out in outputs:
            if out is not None:
                try:
                    ratio = workload.check(items[i], out)
                except AssertionError as exc:
                    errors.append(f"check failed: {exc}")
                    continue
                if ratio is not None:
                    worst[i] = max(worst[i] or 0.0, ratio)
        rounds += 1
        if rounds >= min_rounds and (smoke or (busy >= seconds and len(spans) >= MIN_OPS)):
            break
    probe.sample(force=True)

    check_errors = [e for e in errors if e.startswith("check failed")]
    for e in errors:
        print(e, file=sys.stderr)
    summary = {"correct": not check_errors, "attempted": len(spans), "failed": failed}

    scale = [probe.scale(t0, t1) for _, t0, t1 in spans]
    ms = {False: [], True: []}
    raw_ms = []
    for (traced, t0, t1), f in zip(spans, scale):
        ms[traced].append(1000.0 * (t1 - t0) * f)
        if not traced:
            raw_ms.append(1000.0 * (t1 - t0))
    e2e = timing_metrics(ms[False])
    e2e["setup_s"] = {"value": setup_s, "unit": "s"}
    e2e["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB",
    }
    e2e["margin_digits"] = {"value": margin_digits(worst), "unit": "digits"}
    raw = {
        **{k: v["value"] for k, v in timing_metrics(raw_ms).items()},
        "setup_s": statistics.median(raw_imports) + statistics.median(raw_generation),
        "reference_ms_median": probe.median_ms(),
    }

    layers = None
    if trace:
        layers = tracer.layer_metrics({i: scale[i] for i, s in enumerate(spans) if s[0]})
        # ops_per_s is the reciprocal mean time, so its relative drop
        # under tracing is 1 - mean untraced / mean traced
        mean = {k: sum(v) / len(v) for k, v in ms.items()}
        layers["trace.overhead_pct"] = {
            "value": 100.0 * (1.0 - mean[False] / mean[True]), "unit": "%"}
    return summary, e2e, layers, raw, tracer


def _write(path: Path, payload) -> None:
    RESULTS.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, reduced inputs, all checks")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "sdckit" / "__init__.py").is_file():
        print(f"error: sdckit sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.smoke:
        ok = True
        for name in WORKLOAD_NAMES:
            summary, e2e, layers, _, _ = run_workload(name, args.seed, 0.0, True, True)
            ok = ok and summary["correct"] and summary["failed"] == 0
            print(json.dumps({"workload": name, **summary, "metrics": {**e2e, **layers}}))
        return 0 if ok else 1

    summary, e2e, layers, raw, tracer = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), False)
    result = {**summary, "metrics": layers if args.trace else e2e}
    tag = f"{args.workload}_seed{args.seed}"
    _write(RESULTS / f"{tag}_trace{args.trace}.json",
           {**result, "end_to_end": e2e, "raw": raw})
    if args.trace:
        tracer.write(RESULTS / f"spans_{tag}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
