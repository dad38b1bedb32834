#!/usr/bin/env python3
"""Run the svpipe CLI chain on a config, then compare or time such runs.

usage: tools/chain.py run <config> <outdir> | diff <run a> <run b> | times <run dir>...

run: every stage of svpipe.cli.STAGES before score, in table order, each its
own `python -m svpipe` process with one BLAS thread, from the src/ of this
checkout, in <outdir>/work. A file that several of them write is copied to
<outdir>/<stem>.<stage><suffix> after each writer but the last
(system.train-joint.svm). Then score + eval for the plda, dplda and e2e
backends on the dev and eval trials, kept in <outdir>/scored/<backend>-<split>/
with their configs in <outdir>/configs/. Every output but those configs and
the logs (<outdir>/logs/<name>.log) is listed by path in <outdir>/sha256.txt.

diff: one tab-separated line "<file> <tensor> <difference>" per file only one
run has or whose sha256 differs (tensor "*"), and per tensor whose bytes differ
in a differing .svm file: max |a - b| / max |a| (a from the first run), "only
in <run>", a shape change or "bytes differ, values equal". Then a count line;
the exit status is 1 if anything differs, as diff(1)'s is.

times: the "stage ... done: <wall> s wall, <cpu> s cpu, peak rss <MB> MB" line
that ends each stage log, as each group's medians and run count, one row per
log in chain order (score and eval logs last, by name). Run dirs are grouped by
their parent directory's name, e.g. parent/r1 parent/r2 change/r1 change/r2, as
given (made absolute, symlinks not followed).
"""

import argparse
import hashlib
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
from svpipe.cli import STAGES  # noqa: E402
from svpipe.fileio import read_container  # noqa: E402

CHAIN = list(STAGES)[: list(STAGES).index("score")]
DONE = re.compile(r"stage \S+ done: ([\d.]+) s wall, ([\d.]+) s cpu, peak rss ([\d.]+) MB")


def copies_after(stage):
    """[(work file, kept copy)] for each file stage writes that a later chain stage rewrites."""
    later = CHAIN[CHAIN.index(stage) + 1 :]
    return [
        (name, f"{Path(name).stem}.{stage}{Path(name).suffix}")
        for name in STAGES[stage].writes
        if any(name in STAGES[other].writes for other in later)
    ]


def run_stage(out, config, command, log):
    """Run one CLI stage in its own process, its output to logs/<log>.log."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, "-m", "svpipe", "--config", str(config), "--workdir", str(out / "work")]
    with open(out / "logs" / f"{log}.log", "wb") as sink:
        if subprocess.run([*argv, command], stdout=sink, stderr=subprocess.STDOUT, env=env).returncode:
            raise SystemExit(f"stage {command} failed; see {sink.name}")


def hash_run(out):
    """Write out/sha256.txt for the kept copies, work/ and scored/; return its line count."""
    found = [*out.glob("*.svm"), *(out / "work").rglob("*"), *(out / "scored").rglob("*")]
    paths = sorted(p.relative_to(out).as_posix() for p in found if p.is_file())
    lines = [f"{hashlib.sha256((out / p).read_bytes()).hexdigest()}  {p}\n" for p in paths]
    (out / "sha256.txt").write_text("".join(lines))
    return len(lines)


def run(config, outdir):
    config, out = Path(os.path.abspath(config)), Path(os.path.abspath(outdir))
    if (out / "work").exists() or (out / "sha256.txt").exists():
        print(f"{out} already holds a run; give an empty directory", file=sys.stderr)
        return 2
    for sub in ("work", "logs", "configs", "scored"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    for stage in CHAIN:
        run_stage(out, config, stage, stage)
        for name, copy in copies_after(stage):
            shutil.copyfile(out / "work" / name, out / copy)
    for backend in ("plda", "dplda", "e2e"):
        for split in ("dev", "eval"):
            name, trials = f"{backend}-{split}", out / "work" / f"trials_{split}.txt"
            cfg = out / "configs" / f"{name}.cfg"
            keys = f"\nscore.backend={backend}\nscore.trials={trials}\neval.trials={trials}\n"
            cfg.write_bytes(config.read_bytes() + keys.encode())
            for command in ("score", "eval"):
                run_stage(out, cfg, command, f"{command}-{name}")
            (out / "scored" / name).mkdir()
            for kept in STAGES["score"].writes + STAGES["eval"].writes:
                (out / "work" / kept).rename(out / "scored" / name / kept)
    print(f"{hash_run(out)} files hashed into {out / 'sha256.txt'}")
    return 0


def read_hashes(run_dir):
    """{path: sha256} from a run's sha256.txt."""
    lines = Path(run_dir, "sha256.txt").read_text().splitlines()
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def relative_diff(a, b):
    """max |a - b| / max |a|; inf where a is all zeros and b is not."""
    if np.array_equal(a, b, equal_nan=True):
        return 0.0
    scale = float(np.abs(a).max())
    return float(np.abs(a - b).max()) / scale if scale > 0.0 else float("inf")


def compare(run_a, run_b):
    """Yield (file, tensor, difference) for every file and tensor that differs."""
    hashes_a, hashes_b = read_hashes(run_a), read_hashes(run_b)
    for name in sorted(hashes_a.keys() | hashes_b.keys()):
        if name not in hashes_a or name not in hashes_b:
            yield name, "*", f"only in {run_a if name in hashes_a else run_b}"
            continue
        if hashes_a[name] == hashes_b[name]:
            continue
        yield name, "*", "sha256 differs"
        if not name.endswith(".svm"):
            continue
        tensors_a, tensors_b = read_container(Path(run_a, name)), read_container(Path(run_b, name))
        for tensor in dict.fromkeys([*tensors_a, *tensors_b]):
            if tensor not in tensors_b or tensor not in tensors_a:
                yield name, tensor, f"only in {run_a if tensor in tensors_a else run_b}"
                continue
            a, b = tensors_a[tensor], tensors_b[tensor]
            if a.shape != b.shape:
                yield name, tensor, f"shape {a.shape} != {b.shape}"
            elif a.tobytes() != b.tobytes():
                yield name, tensor, relative_diff(a, b) or "bytes differ, values equal"


def diff(run_a, run_b):
    found = list(compare(run_a, run_b))
    for name, tensor, difference in found:
        print(f"{name}\t{tensor}\t{difference:.3e}" if isinstance(difference, float)
              else f"{name}\t{tensor}\t{difference}")
    worst = max((d for *_, d in found if isinstance(d, float)), default=0.0)
    files = sum(tensor == "*" for _, tensor, _ in found)
    print(f"{files} files differ, {len(found) - files} tensors differ,"
          f" largest relative difference {worst:.3e}")
    return 1 if found else 0


def read_run(run_dir):
    """{log name: (wall s, cpu s, peak rss MB)} for one run's stage logs."""
    times = {}
    for log in sorted(Path(run_dir, "logs").glob("*.log")):
        found = DONE.findall(log.read_text())
        if not found:
            raise SystemExit(f"{log}: no 'stage ... done' line")
        times[log.stem] = tuple(map(float, found[-1]))
    if not times:
        raise SystemExit(f"{run_dir}: no stage logs under logs/")
    return times


def medians(runs):
    """{log name: (median wall, median cpu, median peak rss, runs)}."""
    names = sorted(
        set().union(*runs), key=lambda s: (CHAIN.index(s) if s in CHAIN else len(CHAIN), s)
    )
    table = {}
    for name in names:
        rows = [run[name] for run in runs if name in run]
        table[name] = tuple(statistics.median(col) for col in zip(*rows)) + (len(rows),)
    return table


def times(run_dirs):
    groups = {}
    for run_dir in run_dirs:
        groups.setdefault(Path(os.path.abspath(run_dir)).parent.name, []).append(read_run(run_dir))
    tables = {group: medians(runs) for group, runs in groups.items()}
    names = list(dict.fromkeys(name for table in tables.values() for name in table))
    header = ["stage"] + [
        f"{group} {col}" for group in tables for col in ("wall_s", "cpu_s", "rss_mb", "n")
    ]
    print("\t".join(header))
    for name in names:
        cells = [name]
        for table in tables.values():
            wall, cpu, rss, n = table.get(name, (float("nan"),) * 3 + (0,))
            cells += [f"{wall:.2f}", f"{cpu:.2f}", f"{rss:.1f}", str(n)]
        print("\t".join(cells))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {"run": (run, "config", "outdir"), "diff": (diff, "run_a", "run_b"),
                "times": (times, "run_dirs")}
    for command, (_, *names) in commands.items():
        subparser = sub.add_parser(command)
        for name in names:
            subparser.add_argument(name, nargs="+" if name == "run_dirs" else None)
    args = parser.parse_args(argv)
    function, *names = commands[args.command]
    return function(*(getattr(args, name) for name in names))

if __name__ == "__main__":
    sys.exit(main())
