#!/usr/bin/env bash
# The benchmark's one command: build the package from source (offline,
# release), then hand every argument to the binary. Run it from the root
# of the checkout. With no arguments it runs the whole suite; with
# `--workload <name> --seed <n> --seconds <s> --trace <0|1>` it makes one
# run and prints the result object as the last line.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the directory cargo is run
# from, which is also where the binary is looked up.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$target/release/verme-perf" "$@"
