"""svpipe benchmark: CLI workloads timed end to end, or traced per module.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload classic --seed 0 --seconds 10 --trace 0

With ``--trace 0`` the run repeats set-up and timed pass at least the
workload's ``min_passes`` times and until ``--seconds`` have passed. Before
each pass it sets the workload up in a fresh work directory, again until
SETUP_SECONDS ÷ ``min_passes`` have passed (``setup_s`` is the median of
all set-ups). Each pass repeats its scoring round until scoring has run for
SCORE_SECONDS (workloads.py).
``train_s`` is the timed training time per pass and ``score_trials_per_s``
the trials scored per second of scoring, both over all passes of the run.
With ``--trace 1`` it sets up and runs one untraced pass, sets up and runs
one pass with every public svpipe function wrapped, runs one more untraced
pass, and reports the per-layer metrics of the traced set-up and pass. The
untraced passes serve only the ``train_s`` base of ``trace_overhead``, so
they score one round.
The last line of standard output is the JSON result; the line before it
records the environment and the per-pass samples.
"""

import os

# one BLAS thread, fixed before numpy is first imported in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SECONDS = 8.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("classic", "joint"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def _quality(workload, quality):
    backend = workload.backends[-1]
    out = {}
    for split in ("dev", "eval"):
        values = quality[(backend, split)]
        out[f"{split}_c_primary"] = float(values["c_primary"])
        out[f"{split}_eer"] = float(values["eer"])
    return out


def measure(workload, runner, seconds):
    """End-to-end metrics with tracing off; returns (metrics, samples, error)."""
    from workloads import check_quality, maxrss_mb

    setups, passes = [], []
    start = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - start < seconds:
        # set-ups come before every pass, so that they sample the host's
        # drifting speed across the whole run as the passes do
        begun = time.perf_counter()
        setups.append(runner.setup())
        while time.perf_counter() - begun < SETUP_SECONDS / workload.min_passes:
            setups.append(runner.setup())
        passes.append(runner.run_pass())
    # totals over the run's passes: on a host whose speed flips between two
    # levels every few seconds the mean is steadier than the median
    metrics = {
        "setup_s": statistics.median(setups),
        "train_s": sum(p["train_s"] for p in passes) / len(passes),
        "score_trials_per_s": sum(p["trials"] for p in passes) / sum(p["score_s"] for p in passes),
        "peak_rss_mb": maxrss_mb(),
        **_quality(workload, passes[0]["quality"][0]),
    }
    samples = {key: [p[key] for p in passes] for key in ("train_s", "score_s")}
    samples.update(
        setup_s=setups,
        trials=[p["trials"] for p in passes],
        score_rounds=[len(p["quality"]) for p in passes],
    )
    return metrics, samples, check_quality(workload, passes)


def trace(workload, runner, seed):
    """Per-layer metrics from one traced set-up and pass."""
    from layers import COUNTERS, layer_metrics
    from svtrace import Tracer
    from workloads import check_quality

    runner.setup()
    before = runner.run_pass(score_seconds=0)
    tracer = Tracer(COUNTERS)
    runner.on_phase = lambda phase: setattr(tracer, "phase", phase)
    with tracer:
        runner.setup()
        traced = runner.run_pass()
    runner.on_phase = lambda phase: None
    after = runner.run_pass(score_seconds=0)
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(WORK / "traces" / f"{workload.name}-seed{seed}.jsonl")
    # untraced passes on both sides of the traced one cancel a steady drift
    # of the host's speed and the first pass's cold start
    untraced_s = (before["train_s"] + after["train_s"]) / 2
    values = layer_metrics(tracer.spans, runner.workdir, untraced_s, traced["train_s"])
    samples = {
        "train_s_untraced": [before["train_s"], after["train_s"]],
        "spans": len(tracer.spans),
    }
    return values, samples, check_quality(workload, [before, traced, after])


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "svpipe" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/svpipe not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # numpy and scipy load with svpipe (about 1.6 s); that is not set-up
    # work, so it happens before the first timed stage
    import svpipe.cli  # noqa: F401
    from workloads import WORKLOADS, RunFailed, Runner

    workload = WORKLOADS[args.workload]
    run_root = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    runner = Runner(workload, run_root, args.seed)
    # metric names and units come from BENCHMARK.json: per_layer when traced
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics, samples, error = {}, {}, None
    try:
        if args.trace:
            metrics, samples, error = trace(workload, runner, args.seed)
        else:
            metrics, samples, error = measure(workload, runner, args.seconds)
    except RunFailed as exc:
        error = str(exc)
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
    if error is None and set(metrics) != set(units):
        error = f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "samples": samples,
        "error": error,
    }
    print(json.dumps(info))
    result = {
        "correct": error is None,
        "attempted": runner.stages_run,
        "failed": runner.stages_failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
