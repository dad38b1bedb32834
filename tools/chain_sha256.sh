#!/bin/sh
# Run the whole svpipe CLI chain on one config and hash every output.
#
# Usage: tools/chain_sha256.sh <config> <outdir>
#
# Runs every stage from synth-data to train-e2e in <outdir>/work, one
# process per stage and one BLAS thread, from the src/ of the checkout this
# script lives in. system.svm is copied to <outdir>/system.train-joint.svm
# before train-e2e overwrites it. Then score + eval run for the plda, dplda
# and e2e backends on trials_dev.txt and trials_eval.txt, and each pair's
# scores.txt and metrics.txt is kept under <outdir>/scored/<backend>-<split>/.
# <outdir>/sha256.txt lists the sha256 of every output, sorted by path;
# each stage's stderr and stdout go to <outdir>/logs/ and are not hashed.
# <outdir>/tensors.txt has one line "<file> <tensor> <sha256>" for every
# tensor of every .svm output, hashing its values as little-endian float64.
#
# To check that a change keeps every artifact byte-identical, run the script
# in a checkout of each commit and diff the two sha256.txt files. Where a
# model file's layout changes, diff the two tensors.txt files: the diff
# names every added, dropped or changed tensor.
set -eu

if [ "$#" -ne 2 ]; then
    echo "usage: $0 <config> <outdir>" >&2
    exit 2
fi
config=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
mkdir -p "$2"
out=$(cd "$2" && pwd)
src=$(cd "$(dirname "$0")/../src" && pwd)
if [ -e "$out/work" ] || [ -e "$out/sha256.txt" ]; then
    echo "$out already holds a run; give an empty directory" >&2
    exit 2
fi
mkdir -p "$out/work" "$out/logs" "$out/configs" "$out/scored"

export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
export PYTHONPATH="$src"

stage() {
    # stage <config> <stage> <log name>
    if ! python -m svpipe --config "$1" --workdir "$out/work" "$2" \
        > "$out/logs/$3.log" 2>&1; then
        echo "stage $2 failed; see $out/logs/$3.log" >&2
        exit 1
    fi
}

for name in synth-data train-ubm extract-stats train-tv extract-ivec train-plda \
    train-dplda train-f2s fit-pca train-s2i train-joint; do
    stage "$config" "$name" "$name"
done
cp "$out/work/system.svm" "$out/system.train-joint.svm"
stage "$config" train-e2e train-e2e

for backend in plda dplda e2e; do
    for split in dev eval; do
        cfg="$out/configs/$backend-$split.cfg"
        trials="$out/work/trials_$split.txt"
        { cat "$config"; printf '\nscore.backend=%s\nscore.trials=%s\neval.trials=%s\n' \
            "$backend" "$trials" "$trials"; } > "$cfg"
        stage "$cfg" score "score-$backend-$split"
        stage "$cfg" eval "eval-$backend-$split"
        mkdir -p "$out/scored/$backend-$split"
        mv "$out/work/scores.txt" "$out/work/metrics.txt" "$out/scored/$backend-$split/"
    done
done

cd "$out"
find work scored system.train-joint.svm -type f | LC_ALL=C sort \
    | while IFS= read -r path; do sha256sum "$path"; done > sha256.txt
find work system.train-joint.svm -type f -name '*.svm' | LC_ALL=C sort \
    | python -c '
import hashlib, sys
import numpy as np
from svpipe.fileio import read_container
for path in sys.stdin.read().splitlines():
    for name, value in read_container(path).items():
        data = np.ascontiguousarray(value, dtype="<f8").tobytes()
        print(path, name, hashlib.sha256(data).hexdigest())
' > tensors.txt
echo "$(wc -l < sha256.txt) files hashed into $out/sha256.txt," \
    "$(wc -l < tensors.txt) tensors into $out/tensors.txt"
