//! Metric names and units, the per-layer derivation from the recorded
//! spans and the program's own span totals, and the result line.

use crate::browse::{BrowseLog, LIMIT_US};
use crate::inputs::{median, percentile, EXTRACTOR_SPANS, RESOURCE_SPANS};
use crate::probe::{self, Layer, Span, LAYERS};
use facet_core::{ServeCacheStats, ShardedFacetIndex};
use facet_obs::MetricsReport;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;

/// End-to-end metrics `(name, unit)`. Every workload reports every one
/// with tracing off; `perfbench/README.md` says what each means there.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_docs_per_s", "docs/s"),
    ("append_p50_ms", "ms"),
    ("append_p95_ms", "ms"),
    ("visible_ms", "ms"),
    ("browse_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("termx.ne.busy_ms", "ms"),
    ("termx.yahoo.busy_ms", "ms"),
    ("termx.wikipedia.busy_ms", "ms"),
    ("termx.terms_per_doc", "terms/doc"),
    ("resources.google.busy_ms", "ms"),
    ("resources.google.queries", "count"),
    ("resources.wordnet.busy_ms", "ms"),
    ("resources.wordnet.queries", "count"),
    ("resources.wikisyn.busy_ms", "ms"),
    ("resources.wikisyn.queries", "count"),
    ("resources.wikigraph.busy_ms", "ms"),
    ("resources.wikigraph.queries", "count"),
    ("resources.expand.parallelism", "ratio"),
    ("resources.cache.hit_rate", "ratio"),
    ("index.cache_reuse_ratio", "ratio"),
    ("textkit.intern.hit_rate", "ratio"),
    ("textkit.intern.len", "count"),
    ("index.ingest_ms", "ms"),
    ("index.extract_ms", "ms"),
    ("index.expand_ms", "ms"),
    ("index.select_ms", "ms"),
    ("index.subsumption_ms", "ms"),
    ("index.swap_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("index.append_ms_growth", "ratio"),
    ("serve.hit_rate", "ratio"),
    ("serve.hit_us_p50", "us"),
    ("serve.miss_us_p50", "us"),
    ("serve.miss_us_p99", "us"),
    ("serve.invalidations", "count"),
    ("serve.evictions", "count"),
    ("serve.republish_ms", "ms"),
    ("browse.late_frac", "ratio"),
    ("load.lag_us_p99", "us"),
    ("store.wal_append_ms", "ms"),
    ("store.wal_bytes_per_doc_byte", "ratio"),
    ("store.persist_ms", "ms"),
    ("store.snapshot_bytes", "bytes"),
    ("store.recover_ms", "ms"),
    ("store.replay_records", "count"),
    ("store.replay_ms", "ms"),
    ("layer.termx.self_ms", "ms"),
    ("layer.resources.self_ms", "ms"),
    ("layer.index.self_ms", "ms"),
    ("layer.serve.self_ms", "ms"),
    ("layer.store.self_ms", "ms"),
    ("alloc.termx.count", "count"),
    ("alloc.termx.bytes", "bytes"),
    ("alloc.resources.count", "count"),
    ("alloc.resources.bytes", "bytes"),
    ("alloc.index.count", "count"),
    ("alloc.index.bytes", "bytes"),
    ("alloc.serve.count", "count"),
    ("alloc.serve.bytes", "bytes"),
    ("alloc.store.count", "count"),
    ("alloc.store.bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Named metric values.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Set `name` to `value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The raw end-to-end samples of a round. Every round of a run repeats
/// the same operations on the same documents, so the `i`-th sample of a
/// kind measures the same work in every round.
#[derive(Debug, Default)]
pub struct Samples {
    /// Set-up time, s.
    pub setup_s: f64,
    /// Documents each ingest step takes in.
    pub docs_per_step: f64,
    /// Wall time of each ingest step, ms: the ingest call plus whatever
    /// else the ingest loop does for it (a snapshot on `trickle_restart`).
    pub step_ms: Vec<f64>,
    /// Latency of each ingest call, ms.
    pub append_ms: Vec<f64>,
    /// Latency of each new state becoming visible to a browse, ms.
    pub visible_ms: Vec<f64>,
    /// Latency of each browse, µs.
    pub browse_us: Vec<f64>,
}

/// One measurement of a workload.
pub struct Measured {
    /// The raw end-to-end samples of a round (empty once combined).
    pub samples: Samples,
    /// Every end-to-end metric (set by [`combine`]).
    pub e2e: Metrics,
    /// Every per-layer metric but `trace.overhead_frac` (empty when
    /// untraced).
    pub layers: Metrics,
    /// The workload's headline latency, against which the traced run's
    /// overhead is taken.
    pub primary: f64,
    /// Operations and correctness checks attempted.
    pub attempted: u64,
    /// Operations that failed and checks that did not hold.
    pub failed: u64,
    /// Digest of the workload's final state: equal across runs of a seed.
    pub digest: u64,
    /// The spans of a traced measurement.
    pub spans: Vec<Span>,
}

/// The fastest of the rounds' `i`-th samples, for every `i` that each
/// round reached.
fn fastest(rounds: &[Samples], kind: fn(&Samples) -> &[f64]) -> Vec<f64> {
    let n = rounds.iter().map(|r| kind(r).len()).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            rounds
                .iter()
                .map(|r| kind(r)[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The end-to-end metrics of a run from its rounds' samples. A shared
/// host's speed drifts with its other tenants' load (on a 2-core cloud
/// VM a fixed CPU loop took between 1x and 1.8x its fastest time within
/// one minute, with no steal time reported) and the drift
/// only ever slows an operation down, so each operation counts at the
/// fastest of its repeats across the rounds: that is the program's cost
/// with the least interference. The percentiles are then taken over the
/// operations. `setup_s` is the median round's set-up; peak RSS is the
/// process's at the end.
fn end_to_end(rounds: &[Samples]) -> Metrics {
    let mut m = Metrics::default();
    let setup_s: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    m.set("setup_s", median(&setup_s));
    let steps = fastest(rounds, |r| &r.step_ms);
    let docs = rounds.first().map_or(0.0, |r| r.docs_per_step) * steps.len() as f64;
    m.set(
        "ingest_docs_per_s",
        ratio(docs, steps.iter().sum::<f64>() / 1e3),
    );
    let append_ms = fastest(rounds, |r| &r.append_ms);
    m.set("append_p50_ms", median(&append_ms));
    m.set("append_p95_ms", percentile(&append_ms, 0.95));
    m.set("visible_ms", median(&fastest(rounds, |r| &r.visible_ms)));
    m.set("browse_p50_us", median(&fastest(rounds, |r| &r.browse_us)));
    m.set("peak_rss_mb", probe::peak_rss_mb().unwrap_or(0.0));
    m
}

/// One run's result from its rounds: the end-to-end metrics of
/// [`end_to_end`], the median round's headline latency, counts added
/// up, and the last round's layers, spans and digest. Every round of a
/// run indexes the same documents, so a round that ends in another
/// state than the first counts as failed.
///
/// # Panics
/// When `rounds` is empty (a bug in this benchmark).
pub fn combine(mut rounds: Vec<Measured>) -> Measured {
    let samples: Vec<Samples> = rounds
        .iter_mut()
        .map(|r| std::mem::take(&mut r.samples))
        .collect();
    let e2e = end_to_end(&samples);
    let primary = median(&rounds.iter().map(|r| r.primary).collect::<Vec<_>>());
    let first = rounds.first().expect("every run has a round").digest;
    let diverged = rounds.iter().filter(|r| r.digest != first).count() as u64;
    if diverged > 0 {
        eprintln!("perfbench: {diverged} round(s) ended in another state than the first");
    }
    let attempted = rounds.iter().map(|r| r.attempted).sum::<u64>() + rounds.len() as u64 - 1;
    let failed = rounds.iter().map(|r| r.failed).sum::<u64>() + diverged;
    let last = rounds.pop().expect("every run has a round");
    Measured {
        samples: Samples::default(),
        e2e,
        layers: last.layers,
        primary,
        attempted,
        failed,
        digest: last.digest,
        spans: last.spans,
    }
}

/// What a traced measurement observed besides its spans.
#[derive(Debug, Default)]
pub struct LayerInputs {
    /// Ingest passes the totals cover: cold builds on `bulk_build`, else
    /// 1. Time, query and allocation totals are reported per pass.
    pub passes: f64,
    /// The program's own span totals over the measured window, ms by path.
    pub program_ms: BTreeMap<String, f64>,
    /// Important terms the extractors returned.
    pub terms_extracted: u64,
    /// Hits of the index's resource caches.
    pub cache_hits: u64,
    /// Misses of the index's resource caches (queries that reached a
    /// backend).
    pub cache_misses: u64,
    /// Distinct important terms answered from the expansion caches.
    pub reused_terms: u64,
    /// Distinct important terms resolved for the first time.
    pub new_terms: u64,
    /// Interner hit rate at the end.
    pub intern_hit_rate: f64,
    /// Interned terms at the end.
    pub intern_len: u64,
    /// Latency of each ingest call, in order.
    pub append_ms: Vec<f64>,
    /// Serving-cache counters over the window.
    pub serve: ServeCacheStats,
    /// The browses.
    pub browses: BrowseLog,
    /// Bytes appended to the WAL.
    pub wal_bytes: u64,
    /// Text bytes of the documents logged to the WAL.
    pub doc_bytes: u64,
    /// Bytes of snapshot files written.
    pub snapshot_bytes: u64,
    /// WAL records the last recovery replayed.
    pub replay_records: u64,
}

/// Add the serving-cache counters accumulated between two readings.
pub fn add_serve(total: &mut ServeCacheStats, before: ServeCacheStats, after: ServeCacheStats) {
    total.hits += after.hits - before.hits;
    total.misses += after.misses - before.misses;
    total.evictions += after.evictions - before.evictions;
    total.invalidations += after.invalidations - before.invalidations;
}

/// `(hits, misses)` summed over an index's resource caches.
pub fn resource_cache(index: &ShardedFacetIndex<'_>) -> (u64, u64) {
    index
        .resource_cache_stats()
        .iter()
        .fold((0, 0), |(h, m), c| (h + c.hits, m + c.misses))
}

/// The program's span totals accumulated between two recorder
/// snapshots, in ms by span path.
pub fn program_ms(before: &MetricsReport, after: &MetricsReport) -> BTreeMap<String, f64> {
    let base: HashMap<&str, u64> = before
        .spans
        .iter()
        .map(|s| (s.path.as_str(), s.total_us))
        .collect();
    after
        .spans
        .iter()
        .map(|s| {
            let earlier = base.get(s.path.as_str()).copied().unwrap_or(0);
            (
                s.path.clone(),
                s.total_us.saturating_sub(earlier) as f64 / 1e3,
            )
        })
        .collect()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn dur_ms(s: &Span) -> f64 {
    (s.end_ns - s.start_ns) as f64 / 1e6
}

/// Milliseconds of `parent` covered by the union of `children`.
fn covered_ms<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> f64 {
    let mut intervals: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    intervals.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        open = match open {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((s, e)) = open {
        total += e - s;
    }
    total as f64 / 1e6
}

/// Every per-layer metric but `trace.overhead_frac`, from the spans of a
/// traced measurement and what it observed.
pub fn per_layer(spans: &[Span], i: &LayerInputs) -> Metrics {
    let mut m = Metrics::default();
    let passes = i.passes.max(1.0);
    let busy = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(dur_ms)
            .sum::<f64>()
    };
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let program = |path: &str| i.program_ms.get(path).copied().unwrap_or(0.0);

    for name in EXTRACTOR_SPANS {
        m.set(format!("{name}.busy_ms"), busy(name) / passes);
    }
    m.set(
        "termx.terms_per_doc",
        ratio(i.terms_extracted as f64, count(EXTRACTOR_SPANS[0])),
    );
    let mut backend_busy = 0.0;
    for name in RESOURCE_SPANS {
        backend_busy += busy(name);
        m.set(format!("{name}.busy_ms"), busy(name) / passes);
        m.set(format!("{name}.queries"), count(name) / passes);
    }

    // Self time per layer, and the wall time index calls spent inside
    // extractor and backend calls (their children on worker threads).
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let mut self_ms = [0.0; LAYERS.len()];
    let (mut extract_ms, mut expand_ms, mut backend_wall_ms) = (0.0, 0.0, 0.0);
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let covered =
            |keep: fn(Layer) -> bool| covered_ms(s, kids.iter().copied().filter(|c| keep(c.layer)));
        self_ms[s.layer as usize] += dur_ms(s) - covered(|_| true);
        backend_wall_ms += covered(|l| l == Layer::Resources);
        if s.layer == Layer::Index {
            let termx = covered(|l| l == Layer::Termx);
            extract_ms += termx;
            expand_ms += covered(|l| matches!(l, Layer::Termx | Layer::Resources)) - termx;
        }
    }
    m.set(
        "resources.expand.parallelism",
        ratio(backend_busy, backend_wall_ms),
    );
    m.set(
        "resources.cache.hit_rate",
        ratio(i.cache_hits as f64, (i.cache_hits + i.cache_misses) as f64),
    );
    m.set(
        "index.cache_reuse_ratio",
        ratio(i.reused_terms as f64, (i.reused_terms + i.new_terms) as f64),
    );
    m.set("textkit.intern.hit_rate", i.intern_hit_rate);
    m.set("textkit.intern.len", i.intern_len as f64);

    // `FacetServer::append` is the index append plus the republish of the
    // serving views; the program times the former as its `append` span.
    let server_republish = (busy("index.server_append") - program("append")).max(0.0);
    let stages: f64 = [
        "append.merge",
        "append.select",
        "append.subsumption",
        "append.swap",
    ]
    .into_iter()
    .map(program)
    .sum();
    let index_self = self_ms[Layer::Index as usize];
    m.set(
        "index.ingest_ms",
        (index_self - stages - server_republish).max(0.0) / passes,
    );
    m.set("index.extract_ms", extract_ms / passes);
    m.set("index.expand_ms", expand_ms / passes);
    m.set("index.select_ms", program("append.select") / passes);
    m.set(
        "index.subsumption_ms",
        program("append.subsumption") / passes,
    );
    m.set("index.swap_ms", program("append.swap") / passes);
    m.set("shard.merge_ms", program("append.merge") / passes);
    let n = i.append_ms.len();
    let tenth = (n / 10).max(1).min(n);
    m.set(
        "index.append_ms_growth",
        ratio(
            median(&i.append_ms[n - tenth..]),
            median(&i.append_ms[..tenth]),
        ),
    );

    let (b, s) = (&i.browses, &i.serve);
    m.set(
        "serve.hit_rate",
        ratio(s.hits as f64, (s.hits + s.misses) as f64),
    );
    m.set("serve.hit_us_p50", median(&b.hit_us));
    m.set("serve.miss_us_p50", median(&b.miss_us));
    m.set("serve.miss_us_p99", percentile(&b.miss_us, 0.99));
    m.set("serve.invalidations", s.invalidations as f64 / passes);
    m.set("serve.evictions", s.evictions as f64 / passes);
    m.set(
        "serve.republish_ms",
        (busy("serve.publish") + server_republish) / passes,
    );
    let late = b.lat_us.iter().filter(|&&l| l > LIMIT_US).count();
    m.set(
        "browse.late_frac",
        ratio(late as f64, b.lat_us.len() as f64),
    );
    m.set("load.lag_us_p99", percentile(&b.lag_us, 0.99));

    let per_call = |name: &str| ratio(busy(name), count(name));
    m.set("store.wal_append_ms", per_call("store.wal_append"));
    m.set(
        "store.wal_bytes_per_doc_byte",
        ratio(i.wal_bytes as f64, i.doc_bytes as f64),
    );
    m.set("store.persist_ms", per_call("store.persist_to"));
    m.set(
        "store.snapshot_bytes",
        ratio(i.snapshot_bytes as f64, count("store.persist_to")),
    );
    let restarts = count("store.open_from");
    m.set(
        "store.recover_ms",
        ratio(program("store.recover"), restarts),
    );
    m.set("store.replay_records", i.replay_records as f64);
    m.set(
        "store.replay_ms",
        ratio(busy("store.open_from") - program("store.recover"), restarts),
    );

    for layer in &LAYERS[1..] {
        m.set(
            format!("layer.{}.self_ms", layer.name()),
            self_ms[*layer as usize] / passes,
        );
    }
    for (layer, allocs, bytes) in probe::alloc_totals() {
        if layer != Layer::Bench {
            m.set(
                format!("alloc.{}.count", layer.name()),
                allocs as f64 / passes,
            );
            m.set(
                format!("alloc.{}.bytes", layer.name()),
                bytes as f64 / passes,
            );
        }
    }
    m.set("trace.spans", spans.len() as f64);
    m
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// of `names` with its unit.
///
/// # Panics
/// When a workload did not report one of `names` (a bug in this
/// benchmark).
pub fn result_json(
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    metrics: &Metrics,
) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Write spans as JSON lines: id, parent, request, name, layer, and
/// start and end in ns since the run's epoch.
pub fn write_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            s.request,
            s.name,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}
