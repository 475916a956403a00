//! Incremental-vs-rebuild benchmark for the 1-shard `ShardedFacetIndex`
//! append path.
//!
//! ```text
//! incremental [--scale <f>] [--batches <n>] [--out <path>]
//! ```
//!
//! Feeds the SNYT recipe to the index in `--batches` slices and, after
//! each slice, also rebuilds a fresh index over the whole prefix — the
//! strategy a batch-only pipeline is forced into on a growing archive.
//! Writes the report as JSON (default `BENCH_2.json` at the repo root)
//! and prints a summary table.

use facet_bench::run_incremental_bench;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.2f64;
    let mut batches = 5usize;
    let mut out: Option<String> = None;
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
            "--out" => {
                out = argv.get(i + 1).cloned();
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    let out = out.unwrap_or_else(|| {
        // Default to the repo root regardless of invocation cwd.
        format!("{}/../../BENCH_2.json", env!("CARGO_MANIFEST_DIR"))
    });

    let report = run_incremental_bench(scale, batches);
    println!(
        "incremental-vs-rebuild ({}, {} docs, {} batches)",
        report.dataset, report.total_docs, report.n_batches
    );
    println!(
        "{:>6} {:>6} {:>12} {:>12} {:>10} {:>10}",
        "batch", "docs", "append ms", "rebuild ms", "appd qrys", "rbld qrys"
    );
    for b in &report.batches {
        println!(
            "{:>6} {:>6} {:>12.1} {:>12.1} {:>10} {:>10}",
            b.batch,
            b.docs,
            b.append_ms,
            b.rebuild_ms,
            b.append_resource_queries,
            b.rebuild_resource_queries
        );
    }
    println!(
        "total: append {:.1} ms vs rebuild {:.1} ms — {:.2}x speedup, {} vs {} resource queries",
        report.append_total_ms,
        report.rebuild_total_ms,
        report.speedup,
        report.append_resource_queries,
        report.rebuild_resource_queries
    );
    println!(
        "interner: {} symbols, {} hits / {} misses ({:.1}% hit rate); \
         pre-interning totals: append {:.1} ms, rebuild {:.1} ms",
        report.intern.len,
        report.intern.hits,
        report.intern.misses,
        report.intern.hit_rate * 100.0,
        report.before_interning.append_total_ms,
        report.before_interning.rebuild_total_ms
    );

    let json = facet_jsonio::to_json_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write benchmark report");
    println!("wrote {out}");
}
