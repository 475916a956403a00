#!/usr/bin/env bash
# Repository gate: formatting, lints, rustdoc, and the full test suite.
#
# Usage: scripts/check.sh [--tier1|--trace-smoke|--lint|--chaos]
#
#   --tier1        Run exactly the tier-1 gate (release build + tests), the
#                  command CI and the roadmap treat as the must-stay-green
#                  bar, plus the facet-resources, facet-corpus,
#                  facet-textkit, facet-termx, facet-ner and
#                  facet-wikipedia unit tests, every facet-core, facet-store
#                  and facet-obs unit test (among them the interleaving
#                  tests the Lint.toml concurrency sanctions cite) and the
#                  snapshot-digest property (equal digests across worker
#                  counts, thread counts and append splits), the
#                  maintained selection state and the published forests
#                  against fresh passes (the selection-state property and
#                  tests/subsumption_delta.rs), the index
#                  determinism sweep over worker counts, the facet-stats
#                  tests, the facet-textkit row-store unit tests (chunked
#                  rows against a Vec model), the recovery suite, the
#                  Steps 1–4 paper-formula oracle, the Step-1
#                  string-path oracle (tests/extraction_oracle.rs)
#                  and the paper-fidelity quality gate (QUALITY.json), the
#                  facet-eval unit tests (the Tables II–VII grid, its
#                  answer tables against live resources, and the
#                  evaluation measures), a release build of
#                  facet-bench with its unit tests and one
#                  `experiments all --scale 0.05` run that must exit 0 (the
#                  root build compiles only the umbrella package), the
#                  chaos (fault-injection) suite, the trace-export determinism
#                  smoke, the facet-lint unit tests (the rules' fixtures)
#                  and workspace gate, and a release
#                  build of the perfbench workspace with --locked (its
#                  own Cargo workspace, so neither the root build nor the
#                  tests compile it).
#   --trace-smoke  Run the seeded `instrumented_run --trace` scenario
#                  twice and assert the Chrome trace-event exports are
#                  byte-identical. Each run re-parses its trace through
#                  facet-jsonio and exits non-zero unless it holds the
#                  expected span tree (run → append → expand →
#                  resource.query → attempt, depth ≥ 4). See DESIGN.md
#                  section 15.
#   --lint         Run the facet-lint workspace gate only: two lint runs
#                  whose v2 JSON reports must be byte-identical, then the
#                  tool's --verify-report structural check (non-zero exit
#                  on any deny finding; see DESIGN.md section 13), and
#                  print the per-crate count of code lines outside test
#                  items (facet-lint --loc).
#   --chaos        Run the fault-injection determinism suite only
#                  (tests/chaos.rs: seeded faults, degraded-coverage
#                  provenance, repair convergence; see DESIGN.md
#                  section 14).
set -euo pipefail
cd "$(dirname "$0")/.."

run_lint() {
    echo "== facet-lint: workspace determinism & concurrency gate"
    mkdir -p target
    # Two runs must produce byte-identical v2 JSON (the report itself is
    # a published artifact, so it is held to the same determinism bar),
    # and the report must parse and be span-sorted — verified by the
    # tool's own jsonio-backed --verify-report mode.
    cargo run -q --release -p facet-lint -- --root . --json target/LINT_GATE_A.json
    cargo run -q --release -p facet-lint -- --root . --json target/LINT_GATE_B.json >/dev/null
    cmp target/LINT_GATE_A.json target/LINT_GATE_B.json
    cargo run -q --release -p facet-lint -- --verify-report target/LINT_GATE_A.json
    # Code lines outside test items, per crate: the size a change adds
    # or removes (printed, not gated).
    cargo run -q --release -p facet-lint -- --root . --loc
}

run_chaos() {
    echo "== chaos: fault-injection determinism & repair-convergence suite"
    # Named explicitly so a filtered or partial test run cannot silently
    # skip the seeded-fault sweep.
    cargo test -q --release --test chaos
}

run_trace_smoke() {
    echo "== trace smoke: deterministic trace export + span-tree verification"
    mkdir -p target
    cargo run -q --release --example instrumented_run -- \
        --trace target/TRACE_A.json --folded target/TRACE_A.folded
    cargo run -q --release --example instrumented_run -- \
        --trace target/TRACE_B.json --folded target/TRACE_B.folded
    # The seeded scenario must export byte-identical artifacts.
    cmp target/TRACE_A.json target/TRACE_B.json
    cmp target/TRACE_A.folded target/TRACE_B.folded
}

if [[ "${1:-}" == "--lint" ]]; then
    run_lint
    exit 0
fi

if [[ "${1:-}" == "--chaos" ]]; then
    run_chaos
    exit 0
fi

if [[ "${1:-}" == "--trace-smoke" ]]; then
    run_trace_smoke
    echo "Trace smoke passed."
    exit 0
fi

if [[ "${1:-}" == "--tier1" ]]; then
    echo "== tier-1: cargo build --release && cargo test -q"
    cargo build --release
    cargo test -q
    echo "== tier-1: expansion, corpus, text-kit and extractor unit tests"
    # Crate unit tests the root run skips: the expansion engine (rows,
    # repair, the fallible append path), the text database's term
    # strings, and the interner and row store.
    cargo test -q -p facet-resources -p facet-corpus -p facet-textkit
    # The Step-1 extractors' unit tests: the gazetteer, rules and tagger,
    # the title index, and the three extractors with the I(d) union.
    cargo test -q -p facet-termx -p facet-ner -p facet-wikipedia
    echo "== tier-1: index, store and observability unit tests"
    # Every unit test of the three crates, also skipped by the root run:
    # the index's worker sweeps, serving and browse, selection and
    # subsumption against their references, persist, and the
    # interleaving tests the core::serve, store::wal, store::snapshot and
    # obs::trace sanctions in Lint.toml cite. The digest property is
    # named explicitly: it is what recovery's digest checks mean.
    cargo test -q -p facet-core -p facet-store -p facet-obs
    cargo test -q -p facet-core digest_is_equal_across_shards_threads_and_splits
    echo "== tier-1: publish state against fresh passes"
    # Selection's maintained candidate set against a fresh selection
    # after appends, repair and reopen, and every published forest
    # against a fresh build, named explicitly so a filtered or partial
    # test run cannot silently skip them.
    cargo test -q -p facet-core maintained_selection_equals_a_fresh_pass
    cargo test -q --test subsumption_delta
    echo "== tier-1: index determinism sweep"
    # The worker-count x thread-count equivalence tests, named explicitly
    # so a filtered or partial test run cannot silently skip them.
    cargo test -q --test determinism shard
    echo "== tier-1: statistics and row-store unit tests"
    # Counted rank bins against the sort-based reference; the chunked
    # row store against a Vec model (crate unit tests, also skipped by
    # the root run).
    cargo test -q -p facet-stats
    cargo test -q -p facet-textkit rows::
    echo "== tier-1: recovery"
    # Restore rebuilds the tables from persisted sources.
    cargo test -q --test recovery
    echo "== tier-1: pipeline oracle, Step-1 oracle and quality gate"
    # The index against Steps 1–4 written from the paper's formulas, the
    # extractors against the string-based Step-1 path, and the
    # recall/precision grids against QUALITY.json, named explicitly so a
    # filtered or partial test run cannot silently skip them.
    cargo test -q --test pipeline_oracle
    cargo test -q --test extraction_oracle
    cargo test -q --test quality_gate
    echo "== tier-1: evaluation unit tests"
    # The experiment grid and its answer tables against fresh indexes
    # over live resources, the judges and the user study (crate unit
    # tests, also skipped by the root run).
    cargo test -q -p facet-eval
    echo "== tier-1: experiment drivers"
    # The root build compiles only the umbrella package, so facet-bench
    # and its drivers are built, unit-tested and run here: every
    # experiment at a small scale must finish with exit 0.
    cargo build --release -p facet-bench
    cargo test -q -p facet-bench
    ./target/release/experiments all --scale 0.05 >/dev/null
    run_chaos
    run_trace_smoke
    echo "== tier-1: facet-lint unit tests"
    # The rules' fixture tests (C1's among them), which the workspace
    # gate below only applies, never tests.
    cargo test -q -p facet-lint
    run_lint
    echo "== tier-1: perfbench build"
    # --locked: a dependency change that would rewrite perfbench's
    # committed Cargo.lock fails the gate instead of editing the lock.
    cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
    echo "Tier-1 gate passed."
    exit 0
fi

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (first-party packages, warnings are errors)"
# Every package of this repository but the third_party/ shims: the root
# package and each crate under crates/.
doc_packages=(-p facet-hierarchies)
for manifest in crates/*/Cargo.toml; do
    doc_packages+=(-p "$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)")
done
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps "${doc_packages[@]}"

echo "== cargo test"
cargo test -q --workspace

echo "All checks passed."
