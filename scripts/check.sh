#!/usr/bin/env bash
# Repo gate: format, build, test, lint. Run before every push.
#
#   scripts/check.sh
#
# The container is offline; --offline keeps cargo from probing crates.io.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release =="
cargo build --release --offline --workspace

echo "== cargo test =="
cargo test -q --offline --workspace

echo "== cargo clippy =="
# -D warnings plus a curated pedantic/restriction subset. clippy.toml bans
# hash collections, process entropy and the wall clock (the determinism
# rules D01/D02 that coaxial-lint used to carry); lossy casts must go
# through coaxial_sim::narrow (T01); every unsafe block needs a SAFETY
# comment (U01); config structs are passed by reference unless the callee
# stores them.
CLIPPY_FLAGS=(
  -D warnings
  -D clippy::cast_possible_truncation
  -D clippy::undocumented_unsafe_blocks
  -D clippy::large_types_passed_by_value
  -D clippy::needless_pass_by_value
)
cargo clippy --offline --workspace --all-targets -- "${CLIPPY_FLAGS[@]}"

echo "== retired coaxial-lint rules, now clippy =="
# The D01/D02/T01/U01 fixtures of crates/lint must keep failing under the
# same clippy.toml and flags: each _bad file is rejected with every banned
# item it uses named, and each _good twin passes. Dropping a clippy.toml
# entry or one of the flags above fails this step.
FX=crates/lint/tests/fixtures
FXOUT=$(mktemp -d)
retired() {
  local rule=$1 out
  shift
  if out=$(CLIPPY_CONF_DIR="$PWD" clippy-driver --edition 2021 --crate-type lib \
      --emit=metadata -o "$FXOUT/$rule.rmeta" -A dead_code "${CLIPPY_FLAGS[@]}" \
      "$FX/${rule}_bad.rs" 2>&1); then
    echo "$FX/${rule}_bad.rs passed clippy; it must be rejected" >&2
    exit 1
  fi
  for want in "$@"; do
    if ! grep -qF -- "$want" <<<"$out"; then
      echo "$FX/${rule}_bad.rs: clippy did not report: $want" >&2
      echo "$out" >&2
      exit 1
    fi
  done
  CLIPPY_CONF_DIR="$PWD" clippy-driver --edition 2021 --crate-type lib \
    --emit=metadata -o "$FXOUT/$rule.rmeta" -A dead_code "${CLIPPY_FLAGS[@]}" \
    "$FX/${rule}_good.rs"
  echo "$rule: _bad rejected, _good clean"
}
retired d01 'disallowed type `std::collections::HashMap`' \
  'disallowed type `std::collections::HashSet`'
retired d02 'disallowed method `std::time::Instant::now`' \
  'disallowed method `std::time::SystemTime::now`' \
  'disallowed type `std::hash::RandomState`' \
  'disallowed type `std::hash::DefaultHasher`'
retired t01 'clippy::cast-possible-truncation'
retired u01 'clippy::undocumented-unsafe-blocks'
rm -rf "$FXOUT"

echo "== checkpoint-stats =="
# Prefill checkpoint smoke test: two identical runs, the second must
# restore from the content-addressed store (exits non-zero otherwise) and
# the hit-rate line below is the sweep-speedup evidence in miniature.
cargo run -q --offline --release --bin coaxial -- checkpoint-stats mcf --instr 8000 --warmup 2000

echo "== gateway smoke =="
# Boot a loopback gateway, prove a served run is byte-identical to the
# CLI's --json report, check /metrics renders, and drain-shutdown cleanly
# (the serve process must exit 0 with its stats line).
BIN=target/release/coaxial
GWDIR=$(mktemp -d)
trap 'rm -rf "$GWDIR"' EXIT
"$BIN" run mcf --config 4x --instr 4000 --warmup 1000 --json > "$GWDIR/cli.json"
"$BIN" serve --addr 127.0.0.1:0 --port-file "$GWDIR/port.txt" --workers 2 \
  > "$GWDIR/serve.log" 2>&1 &
GWPID=$!
for _ in $(seq 1 100); do
  [ -s "$GWDIR/port.txt" ] && break
  sleep 0.1
done
ADDR=$(cat "$GWDIR/port.txt")
"$BIN" http POST "http://$ADDR/v1/run" \
  '{"workload":"mcf","config":"4x","instructions":4000,"warmup":1000}' \
  > "$GWDIR/srv.json"
cmp "$GWDIR/cli.json" "$GWDIR/srv.json"
echo "gateway report is byte-identical to the CLI"
"$BIN" http GET "http://$ADDR/metrics" | grep -q "gateway.queue.depth"
"$BIN" http POST "http://$ADDR/shutdown" ''
wait "$GWPID"
cat "$GWDIR/serve.log"

echo "== sampling smoke =="
# SMARTS-style interval sampling (DESIGN.md §5i): a sampled run must cover
# a 100x longer per-core horizon than a full-detail Budget::quick run in
# no more than 2x its wall, report a 95% confidence interval in the JSON,
# and stay run-to-run deterministic (byte-identical reports). Each wall is
# the median of 5 alternating runs; single ~100-300 ms runs are too noisy.
full=() sampled=()
for _ in 1 2 3 4 5; do
  t0=$(date +%s%N)
  "$BIN" run mcf --config 4x --instr 6000 --warmup 1000 --json > /dev/null
  full+=($(( ($(date +%s%N) - t0) / 1000000 )))
  t0=$(date +%s%N)
  "$BIN" run mcf --config 4x --instr 600000 --sampled --json > "$GWDIR/sampled.json"
  sampled+=($(( ($(date +%s%N) - t0) / 1000000 )))
done
median5() { printf '%s\n' "$@" | sort -n | sed -n 3p; }
full_ms=$(median5 "${full[@]}")
sampled_ms=$(median5 "${sampled[@]}")
grep -q '"sampling":{' "$GWDIR/sampled.json"
grep -q '"ipc_ci_half":' "$GWDIR/sampled.json"
"$BIN" run mcf --config 4x --instr 600000 --sampled --json > "$GWDIR/sampled2.json"
cmp "$GWDIR/sampled.json" "$GWDIR/sampled2.json"
echo "sampled 100x horizon: median ${sampled_ms} ms (${sampled[*]}) vs full-detail quick: median ${full_ms} ms (${full[*]})"
if [ "$sampled_ms" -gt $((2 * full_ms)) ]; then
  echo "sampled run exceeded 2x the full-detail quick wall" >&2
  exit 1
fi

echo "== coaxial-lint =="
# Workspace static analysis for what clippy cannot see: float
# accumulation in cycle math (T02), zero-cost telemetry (Z01), the
# cross-file coverage rules (C01, E01/E02/E03/E04/E05, M01), lock
# discipline (L01), and the unit-of-measure dataflow rules (Q01/Q02/Q03)
# over the resolved symbol graph. Suppressions live in lint-allow.toml;
# the rule catalog is docs/LINTS.md. The JSON and SARIF reports are
# written next to the text run (CI uploads both as artifacts) and the
# scan must stay inside a wall-time budget so the resolver/graph/dataflow
# tiers never quietly turn the gate sluggish — the per-rule breakdown on
# stderr names the rule to optimize when this trips.
lint_start=$SECONDS
cargo run -q --offline -p coaxial-lint --release
LINT_JSON="${LINT_REPORT_PATH:-target/coaxial-lint-report.json}"
cargo run -q --offline -p coaxial-lint --release -- --format json > "$LINT_JSON"
cargo run -q --offline -p coaxial-lint --release -- --format sarif \
  > "${LINT_SARIF_PATH:-target/coaxial-lint-report.sarif}"
lint_wall=$((SECONDS - lint_start))
echo "coaxial-lint wall time: ${lint_wall}s (budget ${LINT_BUDGET_SECS:=60}s)"
if [ "$lint_wall" -gt "$LINT_BUDGET_SECS" ]; then
  echo "coaxial-lint exceeded its ${LINT_BUDGET_SECS}s wall-time budget" >&2
  exit 1
fi
# Per-rule budget over the report's timings_ms map (the dataflow tier's
# Q01 fixpoint is the heaviest single rule — this catches a superlinear
# regression in any one rule long before the whole-scan budget trips).
slow_rules=$(tr ',{}' '\n\n\n' < "$LINT_JSON" \
  | grep -E '^"[A-Z][0-9]+":[0-9.]+$' \
  | awk -F'[":]' -v b="${LINT_RULE_BUDGET_MS:-5000}" '$4 + 0 > b { printf "%s %.0fms\n", $2, $4 }' \
  || true)
if [ -n "$slow_rules" ]; then
  echo "coaxial-lint rules over the ${LINT_RULE_BUDGET_MS:-5000}ms per-rule budget:" >&2
  echo "$slow_rules" >&2
  exit 1
fi

echo "check.sh: all green"
