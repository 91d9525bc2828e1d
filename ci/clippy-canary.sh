#!/usr/bin/env bash
# Proves the clippy determinism and panic-path sets (docs/static-checks.md)
# are live: for each rule, append one violating item to a file in scope,
# run clippy on its package and require it to fail with the rule's message,
# then restore the file. Appending edits the file, so clippy re-checks it
# even where only a clippy.toml or a crate-root attribute went missing.
#
# Run from the repository root: ci/clippy-canary.sh
set -euo pipefail

backup=$(mktemp)
file=
restore() { if [ -n "$file" ]; then cp "$backup" "$file"; fi; }
trap 'restore; rm -f "$backup"' EXIT

failures=0
canary() {
    local pkg=$1 expected=$2 code=$3
    file=$4
    cp "$file" "$backup"
    printf '\n#[allow(dead_code, reason = "clippy canary")]\n%s\n' "$code" >>"$file"
    local out status=0
    out=$(cargo clippy -q -p "$pkg" --lib -- -D warnings 2>&1) || status=$?
    restore
    file=
    if [ "$status" -ne 0 ] && grep -qF -- "$expected" <<<"$out"; then
        echo "ok: $4: $expected"
    else
        echo "FAIL: $4: clippy exit $status, expected \"$expected\""
        echo "$out"
        failures=$((failures + 1))
    fi
}

# determinism: rocket-sim, rocket-core, rocket-steal, rocket-cache
canary rocket-sim 'disallowed type `std::collections::HashMap`' \
    'fn clippy_canary() -> std::collections::HashMap<u8, u8> { Default::default() }' \
    crates/sim/src/lib.rs
canary rocket-cache 'disallowed type `std::collections::HashSet`' \
    'fn clippy_canary() -> std::collections::HashSet<u8> { Default::default() }' \
    crates/cache/src/directory.rs
canary rocket-sim 'disallowed method `std::time::Instant::now`' \
    'fn clippy_canary() -> std::time::Instant { std::time::Instant::now() }' \
    crates/sim/src/lib.rs
canary rocket-steal 'disallowed type `std::time::SystemTime`' \
    'fn clippy_canary() -> std::time::SystemTime { std::time::SystemTime::now() }' \
    crates/steal/src/pool.rs
canary rocket-core 'disallowed method `std::thread::sleep`' \
    'fn clippy_canary() { std::thread::sleep(std::time::Duration::ZERO) }' \
    crates/core/src/lib.rs
canary rocket-steal 'disallowed type `std::hash::RandomState`' \
    'fn clippy_canary() -> std::collections::hash_map::RandomState { Default::default() }' \
    crates/steal/src/lib.rs
# named locks: the same four crates use rocket-sanitize's wrappers
canary rocket-cache 'disallowed type `std::sync::Mutex`' \
    'fn clippy_canary() -> std::sync::Mutex<u8> { Default::default() }' \
    crates/cache/src/lib.rs
canary rocket-core '`allow` attribute without specifying a reason' \
    '#[allow(clippy::inline_always)] fn clippy_canary() {}' \
    crates/core/src/engine/node.rs

# panic-path: the fault-path and untrusted-input files
canary rocket-comm 'used `unwrap()` on an `Option` value' \
    'fn clippy_canary(v: Option<u8>) -> u8 { v.unwrap() }' \
    crates/comm/src/socket.rs
canary rocket-trace 'used `expect()` on an `Option` value' \
    'fn clippy_canary(v: Option<u8>) -> u8 { v.expect("canary") }' \
    crates/trace/src/json.rs
canary rocket-cluster 'usage of the `unreachable!` macro' \
    'fn clippy_canary() { unreachable!() }' \
    crates/cluster/src/driver.rs
canary rocket-core '`panic` should not be present in production code' \
    'fn clippy_canary() { panic!("canary") }' \
    crates/core/src/engine/messages.rs
canary rocket-comm 'indexing may panic' \
    'fn clippy_canary(p: &[u8]) -> u8 { p[0] }' \
    crates/comm/src/wire.rs
canary rocket-trace 'indexing may panic' \
    'fn clippy_canary(p: &[u8]) -> u8 { p[0] }' \
    crates/trace/src/perflog.rs
canary rocket-cluster '`allow` attribute without specifying a reason' \
    '#[allow(clippy::inline_always)] fn clippy_canary() {}' \
    crates/cluster/src/protocol.rs

if [ "$failures" -ne 0 ]; then
    echo "$failures canary(ies) passed clippy: a deny set or clippy.toml is missing"
    exit 1
fi
