#!/usr/bin/env bash
# Repo verification: tier-1 (build + tests) plus lint gates.
#
#   scripts/verify.sh          # everything below
#   scripts/verify.sh --quick  # tier-1 only
#
# Tier-1 (ROADMAP.md): cargo build --release && cargo test -q
# Oracle tests:        cargo test -q -p simcore --features oracle (the
#                      differential suite against the reference solver)
# Lint gates:          cargo clippy --workspace --all-targets -- -D warnings
#                      cargo fmt --check
#                      no #[ignore] without a reason string
# Work counters:       the work_golden test target (two real tiny Montage
#                      cells must reproduce their pinned flow-engine work,
#                      event and cache counters exactly, at every obs
#                      level), plus expt building without simcore's
#                      `oracle` feature (the reference solver is test-only;
#                      host wall time is measured by perfbench/run.py)
# Golden digest:       repro --golden-digest (the fixed tiny workflow must
#                      reproduce tests/golden_digest.txt bit for bit)
# Golden OTLP:         repro --golden-otlp (the fixed run must re-export
#                      tests/golden_otlp.json byte for byte)
# OTLP conformance:    the wfengine/expt otlp test targets (well-formedness
#                      proptests, edge cases, phase/cost parity, exporter
#                      hashes under faults), plus wfobs standing alone
#                      without default features and with no normal
#                      dependency (its test-only OTLP checker parses with
#                      serde_json, which must stay a dev-dependency)
# Live TUI:            golden-frame + live-determinism test targets, the
#                      frame-geometry proptest, and `wfsim run --live`
#                      under TERM=dumb (must fall back to plain `live:`
#                      lines with zero ANSI escape bytes on stderr)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q --workspace

echo "== oracle: simcore differential suite =="
# The root crate has no `oracle` feature, so target the crate directly.
cargo test -q -p simcore --features oracle

echo "== lint: ignored tests must say why =="
# `#[ignore]` without `= "reason"` hides a test with no paper trail.
if grep -rn --include='*.rs' -E '#\[ignore\]' crates src tests shims; then
    echo "error: found #[ignore] without a reason string (use #[ignore = \"why\"])" >&2
    exit 1
fi

if [[ "${1:-}" == "--quick" ]]; then
    echo "verify (quick): OK"
    exit 0
fi

echo "== lint: clippy =="
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== lint: rustfmt =="
cargo fmt --check

echo "== golden digest =="
cargo run --release -q -p expt --bin repro -- --golden-digest

echo "== golden OTLP =="
cargo run --release -q -p expt --bin repro -- --golden-otlp

echo "== otlp conformance =="
cargo test -q -p wfengine --test prop_otlp --test otlp_edge
cargo test -q -p expt --test otlp_parity --test folded_golden --test export_golden
cargo test -q -p wfobs --no-default-features
wfobs_deps="$(cargo tree -p wfobs -e normal --prefix none | grep -v '^wfobs ' || true)"
if [[ -n "$wfobs_deps" ]]; then
    echo "error: wfobs must have no normal dependencies, found:" >&2
    echo "$wfobs_deps" >&2
    exit 1
fi

echo "== live TUI: golden frames + determinism + geometry =="
cargo test -q -p expt --test tui_golden --test live_determinism
cargo test -q -p wfobs --test prop_tui

echo "== live TUI: graceful degradation under TERM=dumb =="
cargo build --release -q -p expt
live_err="$(mktemp)"
TERM=dumb COLUMNS=100 LINES=30 ./target/release/wfsim run \
    --app montage --tiny --storage s3 --workers 2 --live \
    >/dev/null 2>"$live_err"
if grep -q $'\x1b' "$live_err"; then
    echo "error: wfsim --live leaked ANSI escapes under TERM=dumb" >&2
    exit 1
fi
if ! grep -q '^live: ' "$live_err"; then
    echo "error: wfsim --live under TERM=dumb printed no plain progress lines" >&2
    exit 1
fi
if ! grep -q '^wfsim: makespan ' "$live_err"; then
    echo "error: wfsim run printed no end-of-run summary on stderr" >&2
    exit 1
fi
rm -f "$live_err"

echo "== work counters =="
cargo test -q -p expt --test work_golden
expt_oracle="$(cargo tree -p expt -e features --prefix none | grep '^simcore feature "oracle"' || true)"
if [[ -n "$expt_oracle" ]]; then
    echo "error: expt must not enable simcore/oracle (the reference solver is test-only)" >&2
    exit 1
fi

echo "verify: OK"
