#!/usr/bin/env python3
"""How far each tensor moved between two tools/chain_sha256.sh runs.

Usage: tools/tensor_diff.py <run dir> <run dir>

Each <run dir> is an <outdir> of tools/chain_sha256.sh. The script reads
every .svm file the two runs wrote (work/*.svm and system.train-joint.svm)
through svpipe.fileio.read_container, from the src/ of the checkout this
script lives in, and prints one tab-separated line per tensor that differs:

    <file> <tensor> <max |a - b| / max |a|>

with a the first run's tensor and b the second's. A file or tensor that only
one run has is listed as "only in <run dir>", and a shape change as
"shape <a shape> != <b shape>". The last line counts the tensors compared and
gives the largest relative difference. A run's tensors.txt says that a tensor
moved; this script says by how much.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from svpipe.fileio import read_container  # noqa: E402


def svm_files(run_dir):
    """{path relative to run_dir: path} of every model file a run wrote."""
    root = Path(run_dir)
    paths = sorted(root.glob("work/*.svm")) + sorted(root.glob("*.svm"))
    return {p.relative_to(root).as_posix(): p for p in paths}


def relative_diff(a, b):
    """max |a - b| / max |a|; inf where a is all zeros and b is not."""
    if np.array_equal(a, b, equal_nan=True):
        return 0.0
    diff = float(np.abs(a - b).max())
    scale = float(np.abs(a).max())
    return diff / scale if scale > 0.0 else float("inf")


def compare(run_a, run_b):
    """Yield (file, tensor, difference) for every tensor of either run.

    difference is relative_diff of the two tensors, or a note where one run
    lacks the file or tensor, or the shapes differ; tensor is "*" for a file
    only one run has.
    """
    files_a, files_b = svm_files(run_a), svm_files(run_b)
    for name in sorted(files_a.keys() | files_b.keys()):
        if name not in files_b or name not in files_a:
            yield name, "*", f"only in {run_a if name in files_a else run_b}"
            continue
        tensors_a, tensors_b = read_container(files_a[name]), read_container(files_b[name])
        for tensor in dict.fromkeys([*tensors_a, *tensors_b]):
            if tensor not in tensors_b or tensor not in tensors_a:
                yield name, tensor, f"only in {run_a if tensor in tensors_a else run_b}"
                continue
            a, b = tensors_a[tensor], tensors_b[tensor]
            if a.shape != b.shape:
                yield name, tensor, f"shape {a.shape} != {b.shape}"
            else:
                yield name, tensor, relative_diff(a, b)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    compared, worst = 0, 0.0
    for name, tensor, difference in compare(*argv):
        if isinstance(difference, float):
            compared += 1
            worst = max(worst, difference)
            if difference == 0.0:
                continue
            difference = f"{difference:.3e}"
        print(f"{name}\t{tensor}\t{difference}")
    print(f"{compared} tensors compared, largest relative difference {worst:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
