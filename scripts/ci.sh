#!/usr/bin/env bash
# Offline CI gate: format, lint, build, test. No network access required —
# the workspace has zero external dependencies (see the root Cargo.toml),
# so everything below runs against the local toolchain only.
#
# Usage: scripts/ci.sh [--quick]
#   --quick  skip the release build (debug build + tests only)

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
fi

step() { printf '\n==> %s\n' "$*"; }

# Scratch dir for the machine-readable CI artifacts: the lint verdict
# lands here next to the trace and bench-regress artifacts produced by
# the gates further down.
TRACE_TMP="$(mktemp -d)"
DIGEST_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP" "$DIGEST_TMP"' EXIT

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

# Static invariants, both tiers (see DESIGN.md "Static invariants"): the
# token tier catches undocumented unsafe, nondeterministic iteration,
# wall-clock reads, thread-count dependence, SIMD confinement, external
# dependencies, ring encapsulation, and unsafe/pragma budget drift; the
# semantic tier rebuilds the workspace call graph and enforces the
# architecture.toml contract — the crate layering DAG (cross-checked
# against the real Cargo.toml dependency edges in BOTH directions, so a
# manifest/contract drift fails here), allocation- and panic-freedom
# from the hot rosters, and f32-reduction confinement. Runs in both the
# quick and full paths — it takes well under a second.
step "lorafusion-lint check (two-tier, --json verdict archived)"
cargo run -q -p lorafusion-lint -- check --json "$TRACE_TMP/lint_verdict.json"

# Dogfood: the linter's own fixture suite, parser/graph unit tests, and
# the self-check that re-scans the tree and re-derives both budget
# tables must hold before the rest of CI leans on the lint gate.
step "lorafusion-lint self-check (fixtures + dogfood)"
cargo test -q -p lorafusion-lint

if [[ "$QUICK" -eq 0 ]]; then
  step "cargo build --release"
  cargo build --release
fi

step "cargo test (root package, the tier-1 gate)"
cargo test -q

step "cargo test --workspace"
cargo test -q --workspace

# Fast determinism-and-sanity gate: bench_gemm asserts in-binary that every
# (layout, shape, threads) cell is bitwise-equal to its serial run, so a
# packing or tiling regression fails CI here rather than only in the
# nightly-style full-size (4096) run. BENCH_GEMM_WRITE=0 keeps the
# committed full-size results/BENCH_gemm.json untouched.
step "bench_gemm determinism gate (size 256)"
if [[ "$QUICK" -eq 0 ]]; then
  BENCH_GEMM_SIZE=256 BENCH_GEMM_WRITE=0 cargo run --release -q -p lorafusion-bench --bin bench_gemm
else
  BENCH_GEMM_SIZE=256 BENCH_GEMM_WRITE=0 cargo run -q -p lorafusion-bench --bin bench_gemm
fi

# Dual-path SIMD gate: the digest mode reduces every (layout, shape,
# threads) cell's output bits to an FNV-1a digest — a pure function of the
# computed bits. Run it once with SIMD forced off (the safe fallback path)
# and once under the default dispatch, then diff the two files: the
# explicit-SIMD kernel must be bitwise-equal to the fallback on every cell,
# on this host, on every CI run.
step "bench_gemm dual-path SIMD gate (size 128)"
if [[ "$QUICK" -eq 0 ]]; then
  LORAFUSION_SIMD=0 BENCH_GEMM_SIZE=128 BENCH_GEMM_WRITE=0 BENCH_GEMM_DIGEST="$DIGEST_TMP/fallback.txt" \
    cargo run --release -q -p lorafusion-bench --bin bench_gemm
  BENCH_GEMM_SIZE=128 BENCH_GEMM_WRITE=0 BENCH_GEMM_DIGEST="$DIGEST_TMP/default.txt" \
    cargo run --release -q -p lorafusion-bench --bin bench_gemm
else
  LORAFUSION_SIMD=0 BENCH_GEMM_SIZE=128 BENCH_GEMM_WRITE=0 BENCH_GEMM_DIGEST="$DIGEST_TMP/fallback.txt" \
    cargo run -q -p lorafusion-bench --bin bench_gemm
  BENCH_GEMM_SIZE=128 BENCH_GEMM_WRITE=0 BENCH_GEMM_DIGEST="$DIGEST_TMP/default.txt" \
    cargo run -q -p lorafusion-bench --bin bench_gemm
fi
diff "$DIGEST_TMP/fallback.txt" "$DIGEST_TMP/default.txt"

# Module-level gate: bench_lora asserts in-binary that the fused executor's
# forward output is bitwise-equal to the reference multi-pass baseline, its
# gradients agree to tolerance, and the fused step is bitwise reproducible
# at 1/2/4/8 threads. BENCH_LORA_WRITE=0 keeps the committed full-size
# results/BENCH_lora.json untouched.
step "bench_lora fused-vs-reference gate (hidden 128)"
if [[ "$QUICK" -eq 0 ]]; then
  BENCH_LORA_SIZE=128 BENCH_LORA_WRITE=0 cargo run --release -q -p lorafusion-bench --bin bench_lora
else
  BENCH_LORA_SIZE=128 BENCH_LORA_WRITE=0 cargo run -q -p lorafusion-bench --bin bench_lora
fi

# Observability gate: rerun the bench_lora gate with tracing armed, then
# validate the emitted Perfetto trace.json against the Chrome trace-event
# schema with the in-tree validator (trace_validate exits nonzero on any
# malformed event or if no counter tracks made it into the file).
step "trace emission + validation gate"
if [[ "$QUICK" -eq 0 ]]; then
  LORAFUSION_TRACE="$TRACE_TMP/trace.json" BENCH_LORA_SIZE=128 BENCH_LORA_WRITE=0 \
    cargo run --release -q -p lorafusion-bench --bin bench_lora
  cargo run --release -q -p lorafusion-bench --bin trace_validate -- \
    "$TRACE_TMP/trace.json" --require-counters 5
else
  LORAFUSION_TRACE="$TRACE_TMP/trace.json" BENCH_LORA_SIZE=128 BENCH_LORA_WRITE=0 \
    cargo run -q -p lorafusion-bench --bin bench_lora
  cargo run -q -p lorafusion-bench --bin trace_validate -- \
    "$TRACE_TMP/trace.json" --require-counters 5
fi

# Fused-loss gate: bench_loss asserts in-binary that the chunked fused
# linear+cross-entropy path is bitwise-equal to the unfused reference for
# every chunk size in its sweep (including a ragged non-divisor) and at
# 1/2/4/8 threads, that peak live logits memory shrinks by at least
# tokens/chunk, that the fused RMSNorm/SwiGLU chains match their
# multi-pass references bitwise, and that the chunked loss raises the
# Llama-8B memory-plan token capacity. Tracing is armed so the loss.*
# counter tracks can be checked by name.
step "bench_loss chunked fused linear+CE gate (96x64x512)"
if [[ "$QUICK" -eq 0 ]]; then
  LORAFUSION_TRACE="$TRACE_TMP/loss_trace.json" BENCH_LOSS_TOKENS=96 BENCH_LOSS_HIDDEN=64 \
    BENCH_LOSS_VOCAB=512 BENCH_LOSS_WRITE=0 cargo run --release -q -p lorafusion-bench --bin bench_loss
  cargo run --release -q -p lorafusion-bench --bin trace_validate -- \
    "$TRACE_TMP/loss_trace.json" \
    --require-counter loss.fused_calls \
    --require-counter loss.reference_calls \
    --require-counter loss.chunks \
    --require-counter chains.fused_calls \
    --require-histogram loss.chunk.tokens
else
  LORAFUSION_TRACE="$TRACE_TMP/loss_trace.json" BENCH_LOSS_TOKENS=96 BENCH_LOSS_HIDDEN=64 \
    BENCH_LOSS_VOCAB=512 BENCH_LOSS_WRITE=0 cargo run -q -p lorafusion-bench --bin bench_loss
  cargo run -q -p lorafusion-bench --bin trace_validate -- \
    "$TRACE_TMP/loss_trace.json" \
    --require-counter loss.fused_calls \
    --require-counter loss.reference_calls \
    --require-counter loss.chunks \
    --require-counter chains.fused_calls \
    --require-histogram loss.chunk.tokens
fi

# Online-scheduler gate: bench_scheduler asserts in-binary that a full
# event-stream replay is digest-identical run to run and that the final
# packing stays within the documented ε of a cold re-solve. The 512-event
# invocation keeps it fast; tracing is armed so the emitted trace can be
# checked for the repair-ladder counter tracks (scheduler.repack.*) by name.
step "bench_scheduler determinism + quality gate (512 events)"
if [[ "$QUICK" -eq 0 ]]; then
  LORAFUSION_TRACE="$TRACE_TMP/sched_trace.json" BENCH_SCHED_JOBS=128 BENCH_SCHED_EVENTS=512 \
    BENCH_SCHED_WRITE=0 cargo run --release -q -p lorafusion-bench --bin bench_scheduler
  cargo run --release -q -p lorafusion-bench --bin trace_validate -- \
    "$TRACE_TMP/sched_trace.json" \
    --require-counter scheduler.repack.local_repair \
    --require-counter scheduler.repack.cold_solves \
    --require-histogram 'scheduler.event.padded_tokens{class=arrive}'
else
  LORAFUSION_TRACE="$TRACE_TMP/sched_trace.json" BENCH_SCHED_JOBS=128 BENCH_SCHED_EVENTS=512 \
    BENCH_SCHED_WRITE=0 cargo run -q -p lorafusion-bench --bin bench_scheduler
  cargo run -q -p lorafusion-bench --bin trace_validate -- \
    "$TRACE_TMP/sched_trace.json" \
    --require-counter scheduler.repack.local_repair \
    --require-counter scheduler.repack.cold_solves \
    --require-histogram 'scheduler.event.padded_tokens{class=arrive}'
fi

# Bench-regression gate: diff every committed results/BENCH_*.json against
# its pinned copy under results/baselines/. Provenance fields (host_cores,
# detected_features, simd_path) are skipped, rate/latency fields get a wide
# relative band, and digests/counts must match exactly — so the gate is
# deterministic on any host while still catching a silently edited or
# regressed committed result. The machine-readable verdict lands in the CI
# temp dir for triage. Runs in both paths: it is a pure file diff.
step "bench_regress gate (results/ vs results/baselines/)"
cargo run -q -p lorafusion-bench --bin bench_regress -- \
  --out "$TRACE_TMP/bench_regress_verdict.json"

step "CI OK"
