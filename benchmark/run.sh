#!/usr/bin/env bash
# Build the benchmark offline and run it. Arguments go to the binary;
# without --workload every workload runs, each in a process of its own.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# crates/core/src/monitor.rs has one line that does not type-check at
# HEAD, and this directory may not change files outside itself. So the
# library crates are copied, with the root manifest's workspace tables,
# and the copy of that line is repaired (behaviour-identical; a no-op
# once the repository carries the fix). Time stamps are kept, so cargo
# rebuilds only what changed in crates/.
rm -rf "$here/overlay"
mkdir -p "$here/overlay/crates"
sed '/^\[package\]/,$d' "$root/Cargo.toml" >"$here/overlay/Cargo.toml"
touch -r "$root/Cargo.toml" "$here/overlay/Cargo.toml"
for c in tpcw sim hpc os-metrics ml parallel core net fleet capsearch; do
    mkdir "$here/overlay/crates/$c"
    cp -Rp "$root/crates/$c/Cargo.toml" "$root/crates/$c/src" "$here/overlay/crates/$c/"
done
monitor=crates/core/src/monitor.rs
sed -i 's/^\( *tier\.select(level\.select(&self\.features))\)$/\1.as_slice()/' "$here/overlay/$monitor"
touch -r "$root/$monitor" "$here/overlay/$monitor"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/webcap-e2e-bench"

case " $* " in
*" --workload "*) exec "$bin" "$@" ;;
esac
for w in train_meter capacity_search online_clean online_faulty fleet_k2; do
    "$bin" --workload "$w" "$@"
done
