#!/usr/bin/env python3
"""Per-stage wall time, cpu time and peak RSS of tools/chain_sha256.sh runs.

Usage: tools/stage_times.py <run dir>...

Each <run dir> is an <outdir> of tools/chain_sha256.sh. Its logs/ directory
holds one log per stage process, and each log ends with the line

    stage <name> done: <wall> s wall, <cpu> s cpu, peak rss <MB> MB

Every stage runs in a fresh process, so these numbers resolve moves of one
stage that an in-process benchmark pass blurs. Run dirs are grouped by the
name of the directory that holds them (one group per checkout, for example
parent/run1 parent/run2 change/run1 change/run2). The script prints one
tab-separated row per log (the training stages in chain order, then the
score and eval logs by name) with each group's median wall seconds, cpu
seconds and peak RSS over its runs, and the number of runs.
"""

import re
import statistics
import sys
from pathlib import Path

DONE = re.compile(
    r"stage \S+ done: ([\d.]+) s wall, ([\d.]+) s cpu, peak rss ([\d.]+) MB"
)
CHAIN = (
    "synth-data train-ubm extract-stats train-tv extract-ivec train-plda "
    "train-dplda train-f2s fit-pca train-s2i train-joint train-e2e"
).split()


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


def group_runs(run_dirs):
    """{group name: [per-run times]}, grouped by each run dir's parent name."""
    groups = {}
    for run_dir in run_dirs:
        name = Path(run_dir).resolve().parent.name
        groups.setdefault(name, []).append(read_run(run_dir))
    return groups


def medians(runs):
    """{log name: (median wall, median cpu, median peak rss, runs)}."""
    names = sorted(
        set().union(*runs),
        key=lambda s: (CHAIN.index(s) if s in CHAIN else len(CHAIN), s),
    )
    table = {}
    for name in names:
        rows = [run[name] for run in runs if name in run]
        table[name] = tuple(statistics.median(col) for col in zip(*rows)) + (len(rows),)
    return table


def main(argv):
    if not argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    tables = {group: medians(runs) for group, runs in group_runs(argv).items()}
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


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
