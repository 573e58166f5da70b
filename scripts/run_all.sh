#!/usr/bin/env bash
# Run every committed experiment configuration through the CLI of this
# checkout (src/ first on PYTHONPATH; no installed entry point needed).
# Reports land in out/ (override with $1).
set -euo pipefail
cd "$(dirname "$0")/.."
OUT="${1:-out}"
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

run() {
    echo "== schrodlab $1 --config $2"
    python3 -m schrodlab.cli "$1" --config "$2" --output "$OUT"
}

run verify-strichartz    configs/strichartz.yaml
run verify-strichartz    configs/gain.yaml
run kernel-table         configs/kernel_table.yaml
run bs-norm-sweep        configs/bs_sweep.yaml
run cgo-build            configs/cgo.yaml
run cgo-remainder-sweep  configs/cgo_remainder.yaml
run cgo-remainder-sweep  configs/cgo_remainder_cusp.yaml
run forward-evolve       configs/forward.yaml
run identity-check       configs/identity.yaml
run reconstruct          configs/reconstruct.yaml
run counterexample-sweep configs/counterexample.yaml
run counterexample-sweep configs/counterexample_unscaled.yaml
run counterexample-sweep configs/counterexample_control.yaml

echo "all experiments finished; reports in $OUT/"
