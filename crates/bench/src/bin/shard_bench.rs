//! Shard-count sweep of the `ShardedFacetIndex` append path.
//!
//! ```text
//! shard_bench [--scale <f>] [--batches <n>] [--shards <a,b,c>] [--out <path>] [--smoke]
//! ```
//!
//! Feeds the SNYT recipe to a 1-shard baseline index and to
//! `ShardedFacetIndex` at each requested shard count, in the same
//! `--batches` slices, and verifies every run is string-identical to
//! the baseline. The report keeps its historical `unsharded_*` key
//! names for the baseline, so committed baselines stay comparable.
//! Writes the report as JSON
//! (default `BENCH_3.json` at the repo root) and prints a summary table.
//!
//! `--smoke` asserts report invariants (equivalence, rate math) and
//! exits non-zero on violation — wired into `scripts/check.sh
//! --bench-smoke` so regressions in the benchmark arithmetic itself
//! fail fast.

use facet_bench::run_shard_bench;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.2f64;
    let mut batches = 5usize;
    let mut shards: Vec<usize> = vec![1, 2, 4, 8];
    let mut out: Option<String> = None;
    let mut smoke = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                scale = argv.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(0.2);
                i += 2;
            }
            "--batches" => {
                batches = argv.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(5);
                i += 2;
            }
            "--shards" => {
                shards = argv
                    .get(i + 1)
                    .map(|s| s.split(',').filter_map(|p| p.trim().parse().ok()).collect())
                    .filter(|v: &Vec<usize>| !v.is_empty())
                    .unwrap_or(shards);
                i += 2;
            }
            "--out" => {
                out = argv.get(i + 1).cloned();
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    let out = out.unwrap_or_else(|| {
        // Default to the repo root regardless of invocation cwd.
        format!("{}/../../BENCH_3.json", env!("CARGO_MANIFEST_DIR"))
    });

    let report = run_shard_bench(scale, batches, &shards);
    println!(
        "shard sweep ({}, {} docs, {} batches, {} host cpus)",
        report.dataset, report.total_docs, report.n_batches, report.host_cpus
    );
    println!(
        "1-shard baseline: {:.1} ms ({} symbols interned; pre-interning: {:.1} ms)",
        report.unsharded_total_ms,
        report.unsharded_intern.len,
        report.before_interning.unsharded_total_ms
    );
    println!(
        "{:>7} {:>12} {:>10} {:>9} {:>10} {:>10}",
        "shards", "append ms", "docs/s", "speedup", "identical", "queries"
    );
    for r in &report.runs {
        println!(
            "{:>7} {:>12.1} {:>10.0} {:>8.2}x {:>10} {:>10}",
            r.shards,
            r.append_total_ms,
            r.append_docs_per_sec,
            r.speedup_vs_unsharded,
            r.identical_to_batch,
            r.resource_queries
        );
    }

    if smoke {
        // Correctness: every shard count must reproduce the baseline.
        for r in &report.runs {
            assert!(
                r.identical_to_batch,
                "{} shards diverged from the 1-shard baseline",
                r.shards
            );
        }
        // Rate math: throughput must be net-new docs over wall time, and
        // speedup must be the wall-clock ratio — the exact invariants the
        // incremental bench once violated.
        for r in &report.runs {
            let rate = report.total_docs as f64 / (r.append_total_ms / 1e3);
            assert!(
                (r.append_docs_per_sec - rate).abs() / rate < 1e-9,
                "{} shards: docs/s must divide net-new docs by wall time",
                r.shards
            );
            let speedup = report.unsharded_total_ms / r.append_total_ms;
            assert!(
                (r.speedup_vs_unsharded - speedup).abs() / speedup < 1e-9,
                "{} shards: speedup must be the wall-clock ratio",
                r.shards
            );
        }
        // The shared cache keeps resource work independent of sharding.
        let queries: Vec<u64> = report.runs.iter().map(|r| r.resource_queries).collect();
        assert!(
            queries.windows(2).all(|w| w[0] == w[1]),
            "resource queries must not depend on the shard count: {queries:?}"
        );
        // The merged vocabulary is content-determined: identical corpus
        // and context terms must intern to the same symbol count no
        // matter how the documents were partitioned.
        let lens: Vec<usize> = report.runs.iter().map(|r| r.intern.len).collect();
        assert!(
            lens.windows(2).all(|w| w[0] == w[1]),
            "merged vocabulary size must not depend on the shard count: {lens:?}"
        );
        println!("smoke assertions passed");
    }

    let json = facet_jsonio::to_json_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write benchmark report");
    println!("wrote {out}");
}
