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
# cleanly. All of that is `--self-check`. Four serving threads, so
# `/shutdown` must wake the three still blocked in `accept` (on a
# 2-core runner too).
run env GOVSCAN_THREADS=4 cargo run --offline -q -p govscan-serve -- \
  --archive "$snapdir/before.snap" --archive "$snapdir/after.snap" --self-check
rm -rf "$snapdir"
# Streamed-pipeline smoke: generate→scan→archive one shard window at a
# time, then re-run the materialized reference arm and require the two
# archives' digests to be byte-identical (--self-check exits non-zero
# otherwise). The receipt must also carry the pinned digest at this
# scale and the default seed (the distributed smoke's), which holds
# only if the scale really comes from GOVSCAN_SCALE.
pipedir="$(mktemp -d)"
run env GOVSCAN_SCALE=0.02 cargo run --offline -q -p govscan-repro --bin pipeline -- \
  --shard-window 2 --out "$pipedir/smoke.snap" --self-check | tee "$pipedir/receipt.txt"
run grep -qF "digest 545fc28398d622ea032c0affbd536e4c3de34a9805643f9cb4ac847ce6e350a4" \
  "$pipedir/receipt.txt"
rm -rf "$pipedir"
# Distributed-scan smoke: the streamed pipeline across 2 socket workers,
# with whichever worker draws shard 0's first lease killed holding it;
# the binary exits non-zero unless the lease-recovered archive's digest
# equals a streamed run's (545fc283… at this scale and the default
# seed, the pipeline smoke's).
run env GOVSCAN_SCALE=0.02 cargo run --offline -q -p govscan-repro --bin distributed -- \
  --workers 2 --inject-death
# The monitor's argument parsing: `--epoch` (a typo for `--epochs`) is
# an unknown argument, a usage error that must exit with status 2
# before any world is built, not run the default twelve epochs.
echo "==> monitor --epoch 1 exits 2"
status=0
cargo run --offline -q -p govscan-repro --bin monitor -- --epoch 1 2> /dev/null || status=$?
if [ "$status" -ne 2 ]; then
  echo "monitor --epoch 1 exited $status, want 2"
  exit 1
fi
# Longitudinal-monitor smoke: baseline + 4 weekly epochs of the
# evolving world; --self-check digest-proves every epoch against full
# rescans at one and at max(2, N) threads and, past the baseline,
# against incremental rescans at the same counts and each applied
# delta. The rescans replay each shard's state from the base, so they
# also prove the state the run carries between epochs. Like every run
# with --out-dir, it ends by resolving the on-disk chain against the
# final archive (exits non-zero on any mismatch). Scale 0.05 is the
# smallest world where the default seed exercises the CAA
# ancestor-coupling rule (www.* probed because its apex changed) —
# keep it there.
mondir="$(mktemp -d)"
run env GOVSCAN_SCALE=0.05 cargo run --offline -q -p govscan-repro --bin monitor -- \
  --epochs 4 --self-check --out-dir "$mondir" > /dev/null
# Serve the whole chain the monitor just wrote: the chain walker
# resolves all four deltas, each registers as an addressable epoch, and
# every endpoint (including /trends over the chain) is hit through the
# real TCP path.
run cargo run --offline -q -p govscan-serve -- \
  --archive "$mondir/epoch-0.snap" --delta "$mondir/epoch-1.dlt" \
  --delta "$mondir/epoch-2.dlt" --delta "$mondir/epoch-3.dlt" \
  --delta "$mondir/epoch-4.dlt" --self-check
rm -rf "$mondir"
# EXPERIMENTS.md must be what today's code prints: re-run its documented
# command (release `repro all` at scale 0.2, default seed) and fail on
# any `paper=` row that differs, leading whitespace stripped.
expdir="$(mktemp -d)"
echo "==> GOVSCAN_SCALE=0.2 repro all, paper= rows against EXPERIMENTS.md"
GOVSCAN_SCALE=0.2 cargo run --release --offline -q -p govscan-repro --bin repro -- all \
  > "$expdir/all.txt"
paper_rows() { grep 'paper=' "$1" | sed 's/^[[:space:]]*//'; }
paper_rows EXPERIMENTS.md > "$expdir/documented.txt"
paper_rows "$expdir/all.txt" > "$expdir/measured.txt"
run diff -u "$expdir/documented.txt" "$expdir/measured.txt"
# The same report on one thread must print the same bytes: every
# executor consumer (worldgen, the scan, the crawl's levels, interlink's
# pages) is bound to output that does not depend on the thread count.
echo "==> GOVSCAN_THREADS=1 GOVSCAN_SCALE=0.2 repro all, whole stdout against the run above"
GOVSCAN_THREADS=1 GOVSCAN_SCALE=0.2 cargo run --release --offline -q -p govscan-repro --bin repro -- all \
  > "$expdir/all-1-thread.txt"
run diff -u "$expdir/all.txt" "$expdir/all-1-thread.txt"
rm -rf "$expdir"

echo "CI OK"
