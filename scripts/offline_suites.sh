#!/usr/bin/env bash
# Run the integration suites where the crates registry is unreachable.
#
# The `benchmark/run.sh` trick, for tests: the workspace is copied into
# a git-ignored directory under target/, the `proptest` dev-dependency
# (no stand-in exists for it) is stripped from the copy's manifests,
# the four third-party crates the libraries name are patched to the
# read-only stand-ins in benchmark/standins/, and every test target
# whose sources do not mention `proptest` runs under `cargo test
# --offline`: the root package's three (what tier-1's `cargo test -q`
# names), then each crate's. The summary lists every target that ran
# with its wall seconds (build included) and every skipped one with
# the reason.
# Arguments after `--` go to every test binary (e.g. `-- --nocapture`).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
copy="$root/target/offline-suites"
# Crate directories under crates/: the meter's core and what it stands
# on, then the telemetry plane, the fleet, the capacity search, the
# chaos mesh, the CLI and the analyzer.
crates=(tpcw sim ml core parallel hpc os-metrics net fleet capsearch chaosnet cli lint)

mkdir -p "$copy"
# Time stamps are kept, so cargo rebuilds only what changed.
for entry in Cargo.toml src tests crates; do
    rm -rf "${copy:?}/$entry"
    cp -Rp "$root/$entry" "$copy/$entry"
done
find "$copy" -name Cargo.toml -exec sed -i -E '/^proptest( =|\.workspace)/d' {} +
cat >>"$copy/Cargo.toml" <<EOF

[patch.crates-io]
rand = { path = "$root/benchmark/standins/rand" }
serde = { path = "$root/benchmark/standins/serde" }
serde_derive = { path = "$root/benchmark/standins/serde_derive" }
serde_json = { path = "$root/benchmark/standins/serde_json" }
EOF

export CARGO_TARGET_DIR="$copy/target"
ran=()
skipped=()
failed=()
run() { # <label> <cargo test arguments...>
    local label="$1" t0=$SECONDS
    shift
    echo "=== $label"
    if cargo test --offline --quiet --manifest-path "$copy/Cargo.toml" "$@"; then
        ran+=("$label ($((SECONDS - t0)) s)")
    else
        failed+=("$label ($((SECONDS - t0)) s)")
    fi
}
suites() { # <label prefix> <package> <tests directory> <test-binary arguments...>
    local prefix="$1" package="$2" dir="$3" suite name
    shift 3
    for suite in "$dir"/*.rs; do
        # A crate without tests/ leaves the glob unexpanded.
        [ -e "$suite" ] || continue
        name="$(basename "$suite" .rs)"
        if grep -qs 'proptest' "$suite"; then
            skipped+=("$prefix/$name: uses proptest")
        else
            run "$prefix/$name" -p "$package" --test "$name" "$@"
        fi
    done
}
suites webcap webcap "$copy/tests" "$@"
for crate in "${crates[@]}"; do
    dir="$copy/crates/$crate"
    # The package name is the manifest's, not the directory's
    # (crates/os-metrics is `webcap-os`).
    package="$(sed -n 's/^name = "\(.*\)"$/\1/p' "$dir/Cargo.toml" | head -n 1)"
    if grep -rqs 'proptest::' "$dir/src"; then
        skipped+=("$crate (unit tests): src/ uses proptest")
    else
        run "$crate (unit tests)" -p "$package" --lib "$@"
    fi
    suites "$crate" "$package" "$dir/tests" "$@"
done

echo
echo "offline suites: ${#ran[@]} passed, ${#failed[@]} failed, ${#skipped[@]} skipped" \
    "(ml, sim and tpcw are listed, but every target of theirs holds a proptest module)"
for r in "${ran[@]}"; do echo "  passed  $r"; done
for s in "${skipped[@]}"; do echo "  skipped $s (no offline stand-in)"; done
for f in "${failed[@]}"; do echo "  FAILED  $f"; done
[ "${#failed[@]}" -eq 0 ]
