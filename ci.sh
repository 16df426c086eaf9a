#!/usr/bin/env bash
# Repo CI gate: formatting, lints, release build, full test suite.
# Run from the repo root. Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tcl-lint (determinism / panic-policy / concurrency / gating invariants)"
cargo build --release -q -p tcl-lint
lint_start_ms=$(( $(date +%s%N) / 1000000 ))
cargo run --release -q -p tcl-lint -- --format json
cargo run --release -q -p tcl-lint -- --self-check
lint_ms=$(( $(date +%s%N) / 1000000 - lint_start_ms ))
if [ "$lint_ms" -gt 5000 ]; then
  echo "FAIL: tcl-lint took ${lint_ms}ms, over the 5s budget" >&2
  exit 1
fi
echo "tcl-lint clean in ${lint_ms}ms"

# Negative control: a seeded determinism violation must fail the stage with
# the correct file:line [RULE] diagnostic.
lint_probe=crates/tensor/src/ci_lint_probe.rs
printf 'pub fn probe() { let _ = std::time::Instant::now(); }\n' > "$lint_probe"
if lint_out=$(cargo run --release -q -p tcl-lint 2>/dev/null); then
  rm -f "$lint_probe"
  echo "FAIL: tcl-lint exited 0 despite a seeded Instant::now violation" >&2
  exit 1
fi
rm -f "$lint_probe"
if ! printf '%s\n' "$lint_out" | grep -q 'crates/tensor/src/ci_lint_probe.rs:1:[0-9]* \[D1\]'; then
  echo "FAIL: tcl-lint missed the seeded violation's file:line [D1] diagnostic" >&2
  printf '%s\n' "$lint_out" >&2
  exit 1
fi
echo "tcl-lint negative control OK (seeded violation caught)"

# Second negative control: intrinsics outside crates/simd must trip S1 —
# the rule that keeps the unsafe surface confined to the tcl-simd island.
s1_probe=crates/tensor/src/ci_s1_probe.rs
printf 'pub use std::arch::x86_64::_mm256_setzero_ps;\n' > "$s1_probe"
if s1_out=$(cargo run --release -q -p tcl-lint 2>/dev/null); then
  rm -f "$s1_probe"
  echo "FAIL: tcl-lint exited 0 despite a seeded intrinsic outside crates/simd" >&2
  exit 1
fi
rm -f "$s1_probe"
if ! printf '%s\n' "$s1_out" | grep -q 'crates/tensor/src/ci_s1_probe.rs:1:[0-9]* \[S1\]'; then
  echo "FAIL: tcl-lint missed the seeded intrinsic's file:line [S1] diagnostic" >&2
  printf '%s\n' "$s1_out" >&2
  exit 1
fi
echo "tcl-lint S1 negative control OK (seeded intrinsic caught)"

# Third negative control: a layering violation (tensor importing a crate
# above it in the DAG) must trip A1 even though cargo would also reject
# it — the lint catches the `use` before a Cargo.toml edit legitimises it.
a1_probe=crates/tensor/src/ci_a1_probe.rs
printf 'pub use tcl_core::Pipeline;\n' > "$a1_probe"
if a1_out=$(cargo run --release -q -p tcl-lint 2>/dev/null); then
  rm -f "$a1_probe"
  echo "FAIL: tcl-lint exited 0 despite a seeded layering violation" >&2
  exit 1
fi
rm -f "$a1_probe"
if ! printf '%s\n' "$a1_out" | grep -q 'crates/tensor/src/ci_a1_probe.rs:1:[0-9]* \[A1\]'; then
  echo "FAIL: tcl-lint missed the seeded layering violation's file:line [A1] diagnostic" >&2
  printf '%s\n' "$a1_out" >&2
  exit 1
fi
echo "tcl-lint A1 negative control OK (seeded layering violation caught)"

# Fourth negative control: a NaN-unsound float comparator must trip F1.
f1_probe=crates/tensor/src/ci_f1_probe.rs
printf 'pub fn probe(v: &mut [f32]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)); }\n' > "$f1_probe"
if f1_out=$(cargo run --release -q -p tcl-lint 2>/dev/null); then
  rm -f "$f1_probe"
  echo "FAIL: tcl-lint exited 0 despite a seeded partial_cmp violation" >&2
  exit 1
fi
rm -f "$f1_probe"
if ! printf '%s\n' "$f1_out" | grep -q 'crates/tensor/src/ci_f1_probe.rs:1:[0-9]* \[F1\]'; then
  echo "FAIL: tcl-lint missed the seeded partial_cmp's file:line [F1] diagnostic" >&2
  printf '%s\n' "$f1_out" >&2
  exit 1
fi
echo "tcl-lint F1 negative control OK (seeded partial_cmp caught)"

# Crate-dependency graph artifact: the DOT render doubles as the A1/A2
# check (rendering loads every manifest through the same model) and is
# published for docs/review.
cargo run --release -q -p tcl-lint -- --deps --format dot > target/deps.dot
if ! grep -q '"tcl-tensor" -> "tcl-simd"' target/deps.dot; then
  echo "FAIL: target/deps.dot missing the tensor -> simd edge" >&2
  cat target/deps.dot >&2
  exit 1
fi
echo "tcl-lint deps graph OK (target/deps.dot published)"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (budget: ${TCL_TEST_BUDGET_S:-1200}s, incl. thread matrix)"
test_start=$(date +%s)
cargo test --workspace -q

# Determinism matrix: the kernels, engine, and golden snapshots must produce
# identical results for every worker count at every SIMD dispatch level.
# `scalar` pins the reference numerics; `wide` runs the portable 8-lane
# kernels, which claim bitwise equality with `scalar`; `native` resolves the
# widest ISA the host offers (AVX2+FMA where available, the portable wide
# path otherwise).
for isa in scalar wide native; do
  for t in 1 4; do
    echo "==> cargo test -p tcl-tensor -p tcl-snn --tests (TCL_SIMD=$isa TCL_THREADS=$t)"
    TCL_SIMD=$isa TCL_THREADS=$t cargo test -q -p tcl-tensor -p tcl-snn --tests
  done
done

# The pipeline benchmark is a package of its own (outside the workspace);
# its tests pin the workload definitions, metric plumbing and checks.
echo "==> cargo test --manifest-path pipeline_bench/Cargo.toml"
cargo test --release --offline -q --manifest-path pipeline_bench/Cargo.toml

elapsed=$(( $(date +%s) - test_start ))
budget="${TCL_TEST_BUDGET_S:-1200}"
if [ "$elapsed" -gt "$budget" ]; then
  echo "FAIL: test suite took ${elapsed}s, over the ${budget}s budget" >&2
  exit 1
fi
echo "tests finished in ${elapsed}s (budget ${budget}s)"

echo "==> telemetry smoke (traced mini conversion + JSONL validation)"
rm -f target/telemetry_smoke.jsonl
TCL_TRACE=target/telemetry_smoke.jsonl TCL_METRICS=1 \
  cargo run --release -q -p tcl-core --example telemetry_smoke
test -s target/telemetry_smoke.jsonl

echo "==> observability toolkit (tcl-trace over the smoke trace + negative control)"
./target/release/tcl-trace --help | grep -q critical-path
smoke=target/telemetry_smoke.jsonl
./target/release/tcl-trace summary "$smoke" | grep -q 'self%'
./target/release/tcl-trace flame "$smoke" > target/telemetry_smoke.folded
test -s target/telemetry_smoke.folded
./target/release/tcl-trace flame --svg "$smoke" | grep -q '<svg'
./target/release/tcl-trace critical-path "$smoke" | grep -q 'critical path:'
# A trace diffed against itself has no regressions and exits 0.
./target/release/tcl-trace diff "$smoke" "$smoke" > /dev/null
# Negative control: a trace cut off mid-line must produce a clean parse
# error naming the bad line (exit 2), not a panic.
{ head -n 3 "$smoke"; printf '{"type":"span","id":'; } > target/telemetry_smoke_truncated.jsonl
set +e
trace_err=$(./target/release/tcl-trace summary target/telemetry_smoke_truncated.jsonl 2>&1)
trace_rc=$?
set -e
if [ "$trace_rc" -ne 2 ]; then
  echo "FAIL: tcl-trace exited $trace_rc on a truncated trace (want 2)" >&2
  printf '%s\n' "$trace_err" >&2
  exit 1
fi
if ! printf '%s\n' "$trace_err" | grep -q 'trace line 4'; then
  echo "FAIL: tcl-trace did not name the corrupt trace line" >&2
  printf '%s\n' "$trace_err" >&2
  exit 1
fi
rm -f target/telemetry_smoke.folded target/telemetry_smoke_truncated.jsonl
echo "tcl-trace OK (summary/flame/critical-path/diff + truncation caught)"

echo "==> bench binaries answer --help (incl. --resume pass-through)"
for bin in table1 figure1 latency_curve lambda_init reset_mode energy lambda_decay engine_bench obs_bench serve_bench; do
  cargo run --release -q -p tcl-bench --bin "$bin" -- --help | grep -q TCL_TRACE
  cargo run --release -q -p tcl-bench --bin "$bin" -- --resume --help | grep -q TCL_CKPT_EVERY
done

echo "==> checkpoint/resume crash-safety suite (bit-exact kill-and-resume)"
cargo test --release -q -p tcl-nn --test checkpoint_resume

echo "==> tcl-serve: load-simulation + fault-injection suites (thread matrix)"
# The serving core is virtual-clock deterministic: the sim-load suite pins
# completion-order fingerprints that must be byte-identical across worker
# counts, so the whole suite runs as separate processes at each setting.
for t in 1 4; do
  echo "==> cargo test -p tcl-serve --tests (TCL_THREADS=$t)"
  TCL_THREADS=$t cargo test -q -p tcl-serve --tests
done
./target/release/tcl_serve --help | grep -q TCL_SERVE_ADDR
# Negative control: a request body cut off mid-transfer must resolve to a
# timely 4xx (slow-loris timeout), never a hang or a served answer.
serve_out=$(cargo test -q -p tcl-serve --test faults   truncated_body_answers_4xx_within_timeout -- --exact 2>&1)
if ! printf '%s\n' "$serve_out" | grep -q '1 passed'; then
  echo "FAIL: truncated-body negative control did not run/pass" >&2
  printf '%s\n' "$serve_out" >&2
  exit 1
fi
echo "tcl-serve OK (deterministic across TCL_THREADS={1,4} + truncated-body control)"

echo "==> tcl-serve: loopback soak (real sockets, reused connections)"
# Drives the real tcl_serve binary over loopback TCP with kept-alive
# connections, asserting zero parse errors and sheds-within-deadline, and
# comparing p50/p99/shed against the virtual-clock prediction. Includes
# the duplicate-Content-Length negative control (smuggling shape -> 400)
# and an in-order pipelining probe.
soak_out=$(TCL_SCALE=quick cargo run --release -q -p tcl-bench --bin serve_bench -- --soak 2>&1)
for want in 'parse_errors=0' 'sheds-within-deadline held' \
    'duplicate-Content-Length probe -> 400' 'pipelined burst answered in order' 'soak OK'; do
  if ! printf '%s\n' "$soak_out" | grep -q "$want"; then
    echo "FAIL: soak missing \"$want\"" >&2
    printf '%s\n' "$soak_out" >&2
    exit 1
  fi
done
echo "tcl-serve soak OK (keep-alive over real sockets + duplicate-Content-Length control)"

echo "CI OK"
