#!/usr/bin/env bash
# Seeded end-to-end serve scenarios, shared by CI's `serve-scenarios` matrix
# job and local runs:
#
#   ci/scenarios.sh <audit|scale|shard|batch|cache|dist|all>
#
# Every scenario drives the release `idde` binary on a deterministic
# workload and pins a contract on its output: the CLI already exits nonzero
# on any audit/certificate violation, and the greps additionally assert the
# exercised machinery actually fired (a silently inert fault plan or a
# cache that never admits fails the job too). Artifacts go to a temp
# directory so local runs never dirty the working tree.
#
# The golden serves under ci/golden/ are compared byte for byte, with the
# rows that show their machinery fired, by the golden serve tests in
# crates/cli/tests/golden_serve.rs, which `cargo test` runs. This script keeps the
# serves without a golden, the 2000-server scale golden, the golden runs at
# RAYON_NUM_THREADS=1 and the contracts that compare two runs.
set -euo pipefail

cd "$(dirname "$0")/.."
export RAYON_NUM_THREADS="${RAYON_NUM_THREADS:-8}"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

idde() {
  cargo run --release -q -p idde-cli --bin idde -- "$@"
}

# A seeded 500+-event churn workload with a full invariant audit every 50
# events plus Nash certificates after each converged repair. Each
# certificate rescans every dirty player after a converged repair, so it
# independently witnesses the quiet-player records, and it re-derives each
# player's best response candidate by candidate, so it witnesses the
# gathered Eq. 12 scan too. The second serve is the per-event churn at
# paper scale (125 servers, 816 users, 5 items), where the records carried
# across repairs skip the most scans. Last, `idde generate` plus the awk
# that gives each server 1, 2 or 3 channels must rebuild
# ci/golden/serve_het.idde, the scenario of the golden table's `het` serve,
# so the generator's output stays pinned.
scenario_audit() {
  idde serve --servers 15 --users 70 --data 4 --seed 7 --ticks 200 --audit 50 \
    --csv "$out/audit.csv"
  grep -E '^certificates,[1-9]' "$out/audit.csv"
  grep -E '^certificate_violations,0$' "$out/audit.csv"
  idde serve --servers 125 --users 816 --data 5 --seed 7 --ticks 100 --audit 50 \
    --csv "$out/audit_paper.csv"
  grep -E '^certificates,[1-9]' "$out/audit_paper.csv"
  grep -E '^certificate_violations,0$' "$out/audit_paper.csv"
  idde generate --servers 15 --users 70 --data 4 --seed 7 --out "$out/uniform.idde"
  awk '$1=="server"{$6=1+$2%3}1' "$out/uniform.idde" > "$out/het.idde"
  cmp ci/golden/serve_het.idde "$out/het.idde"
}

# Exercises the spatial-index and incremental-repair fast paths at a
# geography the brute-force paths would crawl on: a density-preserving
# 2000-site enlargement of the EUA extract, audited throughout. The
# eviction grep proves the per-item top-2 sweep ran at this scale, and the
# CSV must be byte-identical to ci/golden/serve_scale.csv, which pins the
# lazy Eq. 17 greedy where it skips the most work. It is the one golden
# the tier-1 table leaves out: its serve takes about 40 s in a debug
# build on two cores.
scenario_scale() {
  idde serve \
    --scale-servers 2000 --scale-users 2400 \
    --servers 2000 --users 2000 --data 5 \
    --seed 7 --ticks 10 --audit 200 --csv "$out/scale.csv"
  grep -E '^audit_violations,0$' "$out/scale.csv"
  grep -E '^certificate_violations,0$' "$out/scale.csv"
  grep -E '^audits,[1-9]' "$out/scale.csv"
  grep -E '^evicted_replicas,[1-9]' "$out/scale.csv"
  cmp ci/golden/serve_scale.csv "$out/scale.csv"
}

# The shard layer end to end at the scale geography: a 4-shard audited
# serve whose every tick runs the cross-shard audit (union of shard states
# must rebuild one coherent global field) and whose replica eviction runs
# with foreign halo servers, then the migration-safety contract on real CLI
# output — --shards 1 must write the byte-identical serve CSV to the
# unsharded engine — and the merged counters' contract: under link faults,
# a server outage and cut-crossing handoffs, --shards 3 must count the
# event rows (the CSV's first seven lines) and the fault rows exactly as
# --shards 1 does. Both runs are audited, so the K = 3 cross-shard audit
# certifies under a real outage that every shard reads the one network.
scenario_shard() {
  idde serve \
    --scale-servers 2000 --scale-users 5000 \
    --servers 2000 --users 2000 --data 5 \
    --seed 7 --ticks 10 --audit 200 --shards 4 --csv "$out/shard.csv" \
    2> "$out/shard.log"
  grep -E '^shards: 4 tiles' "$out/shard.log"
  grep -E '^cross-shard: [1-9][0-9]* audits, [1-9][0-9]* checks, 0 violations' "$out/shard.log"
  grep -E '^audit_violations,0$' "$out/shard.csv"
  grep -E '^certificate_violations,0$' "$out/shard.csv"
  grep -E '^audits,[1-9]' "$out/shard.csv"
  grep -E '^evicted_replicas,[1-9]' "$out/shard.csv"
  grep -E '^server_outages,0$' "$out/shard.csv"
  grep -E '^link_faults,0$' "$out/shard.csv"
  idde serve \
    --servers 20 --users 100 --data 5 --seed 7 --ticks 100 --csv "$out/mono.csv"
  idde serve \
    --servers 20 --users 100 --data 5 --seed 7 --ticks 100 --csv "$out/one.csv" \
    --shards 1
  cmp "$out/mono.csv" "$out/one.csv"
  for k in 1 3; do
    idde serve \
      --servers 20 --users 100 --data 5 --seed 7 --ticks 120 --audit 50 \
      --chaos 'rand:2022:3:1:1@20+40' --shards "$k" --csv "$out/faults_k$k.csv" \
      2> "$out/faults_k$k.log"
    head -n 7 "$out/faults_k$k.csv" > "$out/faults_k$k.proj"
    grep -E '^(link_faults|server_outages|jam_events|restorations),' \
      "$out/faults_k$k.csv" >> "$out/faults_k$k.proj"
  done
  grep -E '^link_faults,[1-9]' "$out/faults_k1.csv"
  grep -E '^server_outages,[1-9]' "$out/faults_k1.csv"
  grep -E '^cross-shard: [1-9][0-9]* audits, [1-9][0-9]* checks, 0 violations' \
    "$out/faults_k3.log"
  grep -E '^cross-shard: .*, [1-9][0-9]* handoffs$' "$out/faults_k3.log"
  cmp "$out/faults_k1.proj" "$out/faults_k3.proj"
  # The composed K = 2 halo: drifting traffic, an LCE cache, Steiner
  # installs and a fault storm with server outages, batched and audited.
  # Halo refreshes re-synchronise only the mirrors that moved, so the
  # run must stay violation-free and its CSV must not depend on the
  # worker count.
  for threads in 1 "$RAYON_NUM_THREADS"; do
    RAYON_NUM_THREADS="$threads" idde serve \
      --servers 30 --users 150 --data 6 --seed 7 --ticks 120 --shards 2 --batch 64 \
      --workload drift --cache lce --delivery steiner --audit 50 \
      --chaos 'rand:2022:3:2:1@60+20' --csv "$out/halo_t$threads.csv" \
      2> "$out/halo_t$threads.log"
    grep -E '^cross-shard: [1-9][0-9]* audits, [1-9][0-9]* checks, 0 violations' \
      "$out/halo_t$threads.log"
  done
  grep -E '^server_outages,[1-9]' "$out/halo_t1.csv"
  grep -E '^audit_violations,0$' "$out/halo_t1.csv"
  grep -E '^certificate_violations,0$' "$out/halo_t1.csv"
  cmp "$out/halo_t1.csv" "$out/halo_t$RAYON_NUM_THREADS.csv"
}

# The batching layer end to end (ARCHITECTURE.md §7): the group-commit path
# at the scale geography must stay violation-free (and keep evicting dead
# replicas) while repairs are coalesced across whole batches; the
# batch-of-one case (--batch 1, also under a two-shard router whose
# handoffs go through one-event slices) must write the byte-identical serve
# CSV to ci/golden/serve_b1.csv and serve_k2.csv at RAYON_NUM_THREADS=1,
# where every parallel map and shard phase runs inline (the golden table
# compares them at the default worker count); and the ingest-time counter
# projection (the CSV's first seven rows) must be identical across batch
# sizes — equilibrium-derived gauges below that line may legitimately
# differ (a union repair is one game, not N).
scenario_batch() {
  idde serve \
    --scale-servers 2000 --scale-users 2400 \
    --servers 2000 --users 2000 --data 5 \
    --seed 7 --ticks 10 --audit 200 --batch 64 --csv "$out/batch64.csv"
  grep -E '^audit_violations,0$' "$out/batch64.csv"
  grep -E '^certificate_violations,0$' "$out/batch64.csv"
  grep -E '^audits,[1-9]' "$out/batch64.csv"
  grep -E '^evicted_replicas,[1-9]' "$out/batch64.csv"
  RAYON_NUM_THREADS=1 idde serve \
    --servers 20 --users 100 --data 5 --seed 7 --ticks 100 --csv "$out/b1_t1.csv" \
    --batch 1
  cmp ci/golden/serve_b1.csv "$out/b1_t1.csv"
  RAYON_NUM_THREADS=1 idde serve \
    --servers 20 --users 100 --data 5 --seed 7 --ticks 100 --csv "$out/k2_t1.csv" \
    --shards 2
  cmp ci/golden/serve_k2.csv "$out/k2_t1.csv"
  idde serve \
    --servers 20 --users 100 --data 5 --seed 7 --ticks 100 --csv "$out/b64.csv" \
    --batch 64
  head -n 7 "$out/b1_t1.csv" > "$out/b1.proj"
  head -n 7 "$out/b64.csv" > "$out/b64.proj"
  cmp "$out/b1.proj" "$out/b64.proj"
}

# The caching layer's off-switch contract (ARCHITECTURE.md §8): --cache
# off must write the byte-identical serve CSV to a cache-less invocation —
# across seeds, under drift, sharded and batched — so the cache layer is
# provably absent when disabled. The cached goldens (serve_cache.csv and
# the every-layer serve_composed.csv) are in the golden table.
scenario_cache() {
  for seed in 7 2022; do
    idde serve \
      --servers 20 --users 100 --data 5 --seed "$seed" --ticks 100 \
      --csv "$out/base_$seed.csv"
    idde serve \
      --servers 20 --users 100 --data 5 --seed "$seed" --ticks 100 \
      --cache off --csv "$out/off_$seed.csv"
    cmp "$out/base_$seed.csv" "$out/off_$seed.csv"
  done
  idde serve \
    --servers 20 --users 100 --data 5 --seed 7 --ticks 100 \
    --workload drift --csv "$out/drift_base.csv"
  idde serve \
    --servers 20 --users 100 --data 5 --seed 7 --ticks 100 \
    --workload drift --cache off --csv "$out/drift_off.csv"
  cmp "$out/drift_base.csv" "$out/drift_off.csv"
  idde serve \
    --servers 20 --users 100 --data 5 --seed 7 --ticks 100 \
    --shards 3 --batch 8 --csv "$out/sharded_base.csv"
  idde serve \
    --servers 20 --users 100 --data 5 --seed 7 --ticks 100 \
    --shards 3 --batch 8 --cache off --csv "$out/sharded_off.csv"
  cmp "$out/sharded_base.csv" "$out/sharded_off.csv"
}

# The distribution layer's off-switch contract (ARCHITECTURE.md §9):
# --delivery unicast must write the byte-identical serve CSV to an
# unflagged invocation — across seeds and under chaos — so the delivery
# planner is provably absent by default. The Steiner golden
# (serve_dist.csv) is in the golden table.
scenario_dist() {
  for seed in 7 2022; do
    idde serve \
      --servers 15 --users 70 --data 10 --seed "$seed" --ticks 100 \
      --chaos 'rand:2022:2:1:1@60+25' --csv "$out/dist_base_$seed.csv"
    idde serve \
      --servers 15 --users 70 --data 10 --seed "$seed" --ticks 100 \
      --chaos 'rand:2022:2:1:1@60+25' --delivery unicast \
      --csv "$out/dist_uni_$seed.csv"
    cmp "$out/dist_base_$seed.csv" "$out/dist_uni_$seed.csv"
  done
}

run() {
  echo "=== scenario: $1 ==="
  "scenario_$1"
}

case "${1:-}" in
  audit | scale | shard | batch | cache | dist) run "$1" ;;
  all)
    for s in audit scale shard batch cache dist; do
      run "$s"
    done
    ;;
  *)
    echo "usage: ci/scenarios.sh <audit|scale|shard|batch|cache|dist|all>" >&2
    exit 2
    ;;
esac
