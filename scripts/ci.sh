#!/usr/bin/env bash
# Full local CI: exactly what .github/workflows/ci.yml runs.
#
# Offline-friendly by design: every dependency is a path crate (see
# shims/), so no step needs the network. `--offline` makes that a hard
# guarantee rather than an accident of a warm cargo cache.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

run cargo build --release --offline --workspace
# Includes the smoke test of the repository benchmark (crates/benchmark,
# BENCHMARK.json), the one performance measurement; CI gates no timings.
run cargo test -q --offline --release --workspace
run cargo fmt --all --check
run cargo clippy --offline --workspace --all-targets -- -D warnings
# Rustdoc is a gate too: a broken or private intra-doc link fails here.
run env RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
# Snapshot + diff smoke: archive both sides of the disclosure
# comparison at tiny scale, then reproduce the report and Figure 13
# purely from the two files.
snapdir="$(mktemp -d)"
run env GOVSCAN_SCALE=0.02 cargo run --offline -q -p govscan-repro --bin snapshot -- \
  rescan --out-before "$snapdir/before.snap" --out-after "$snapdir/after.snap"
run cargo run --offline -q -p govscan-repro --bin snapshot -- report --from "$snapdir/before.snap" > /dev/null
run cargo run --offline -q -p govscan-repro --bin snapshot -- diff "$snapdir/before.snap" "$snapdir/after.snap" > /dev/null
# Daemon smoke over the same two archives: bind an ephemeral port, hit
# every endpoint through the real TCP path, verify each answer is
# well-formed JSON and the repeated report is a cache hit, shut down
# cleanly. All of that is `--self-check`.
run cargo run --offline -q -p govscan-serve -- \
  --archive "$snapdir/before.snap" --archive "$snapdir/after.snap" --self-check
rm -rf "$snapdir"
# Streamed-pipeline smoke: generate→scan→archive one shard window at a
# time, then re-run the materialized reference arm and require the two
# archives' digests to be byte-identical (--self-check exits non-zero
# otherwise).
pipedir="$(mktemp -d)"
run cargo run --offline -q -p govscan-repro --bin pipeline -- \
  --scale 0.02 --shard-window 2 --out "$pipedir/smoke.snap" --self-check
rm -rf "$pipedir"
# Distributed-scan smoke: 2 workers over the real socket protocol with
# worker 0 killed on its first shard; the binary exits non-zero unless
# the lease-recovered, merged dataset's digest equals the
# single-process scan's.
run env GOVSCAN_SCALE=0.02 cargo run --offline -q -p govscan-repro --bin distributed -- \
  --workers 2 --socket --inject-death
# Longitudinal-monitor smoke: baseline + 4 weekly epochs of the
# evolving world; --self-check digest-proves every epoch's incremental
# scan against full rescans at one and at N threads, round-trips each
# delta, and re-resolves the on-disk chain against the final archive
# (exits non-zero on any mismatch). Scale 0.05 is the smallest world
# where the default seed exercises the CAA ancestor-coupling rule
# (www.* probed because its apex changed) — keep it there.
mondir="$(mktemp -d)"
run env GOVSCAN_SCALE=0.05 cargo run --offline -q -p govscan-repro --bin monitor -- \
  --epochs 4 --self-check --out-dir "$mondir" > /dev/null
# Serve the chain the monitor just wrote: registers each delta as an
# addressable epoch and hits every endpoint (including /trends over
# the chain) through the real TCP path.
run cargo run --offline -q -p govscan-serve -- \
  --archive "$mondir/epoch-0.snap" --delta "$mondir/epoch-1.dlt" \
  --delta "$mondir/epoch-2.dlt" --self-check
rm -rf "$mondir"

echo "CI OK"
