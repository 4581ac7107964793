#!/usr/bin/env bash
# The benchmark's one command:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds the benchmark package (a workspace of its own) from source and
# runs the end-to-end binary, or the traced one for `--trace 1`. Run it
# from the root of the checkout: `benchmark/out` is resolved against
# the working directory.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
bin=bench
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=trace
    fi
    prev="$arg"
done

# Nothing is taken from the network: every dependency is a path inside
# the checkout. Cargo's progress goes to stderr; stdout stays the run's.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$bin"
exec "${CARGO_TARGET_DIR:-$here/target}/release/$bin" "$@"
