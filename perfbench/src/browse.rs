//! `browse_under_ingest`: a 2-shard `FacetServer` over 3,600 SNYT
//! documents, built in set-up, answers an open loop of browses while a
//! writer appends. One generator thread offers browses at a fixed rate,
//! each of 1–3 forest-node labels drawn Zipf (s = 1.07), and times every
//! browse from its due time, so a stall counts against each browse
//! queued behind it. One writer thread appends 10-document batches
//! through `FacetServer::append` at a fixed cadence. The long tail of
//! distinct queries exceeds the 4,096-entry signature cache and every
//! publish invalidates it, so `core::serve` does nearly all the
//! reader-side work while the writer competes with it for the two cores.

use crate::inputs::{self, as_query, ms, us, Backends, Probes, Substrates};
use crate::probe::{self, Layer};
use crate::report::{self, LayerInputs, Measured, Metrics, Samples};
use crate::Config;
use facet_core::{
    fanout_browse, BrowseResult, FacetServer, PipelineOptions, ServeHandle, ShardedFacetIndex,
};
use facet_corpus::{Document, RecipeKind};
use facet_obs::Recorder;
use facet_resources::ExpansionOptions;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Documents indexed in set-up.
const INITIAL: usize = 3_600;
/// Documents per append.
const BATCH: usize = 10;
/// The writer appends once every this many milliseconds.
const CADENCE_MS: u64 = 200;
/// Offered browse rate, per second.
const RATE_QPS: f64 = 500.0;
/// Every this many browses, the answer is compared with a fresh fan-out.
const CHECK_EVERY: usize = 16;
/// The browse latency limit, µs (`browse.late_frac`).
pub const LIMIT_US: f64 = 1_000.0;

/// Latencies and identity checks of a stream of browses.
#[derive(Debug, Default)]
pub struct BrowseLog {
    /// Latency of each browse from its due time, µs.
    pub lat_us: Vec<f64>,
    /// How late each browse started against its due time, µs.
    pub lag_us: Vec<f64>,
    /// Service time of each signature-cache hit, µs.
    pub hit_us: Vec<f64>,
    /// Service time of each signature-cache miss, µs.
    pub miss_us: Vec<f64>,
    /// Answers compared with a fan-out at the same generation.
    pub checks: u64,
    /// Compared answers that differed.
    pub mismatches: u64,
}

impl BrowseLog {
    /// Browse `query` through `handle`, timed from `due`. With `check`,
    /// the answer is then compared byte-for-byte (`canonical()`) with
    /// `fanout_browse` on a pinned snapshot of the same generation,
    /// outside the timed region. Returns the answer and when it arrived.
    pub fn browse(
        &mut self,
        handle: &ServeHandle,
        query: &[String],
        due: Instant,
        check: bool,
    ) -> (Arc<BrowseResult>, Instant) {
        let query = as_query(query);
        let hits = handle.cache_stats().hits;
        let start = Instant::now();
        let answer = {
            let _span = probe::call(Layer::Serve, "serve.browse", false);
            handle.browse(&query)
        };
        let done = Instant::now();
        let service = us(done - start);
        // Only this thread browses, so a moved hit counter is this query.
        if handle.cache_stats().hits > hits {
            self.hit_us.push(service);
        } else {
            self.miss_us.push(service);
        }
        self.lat_us.push(us(done.saturating_duration_since(due)));
        self.lag_us.push(us(start.saturating_duration_since(due)));
        if check {
            let pinned = handle.snapshot();
            if pinned.generation() == answer.generation {
                self.checks += 1;
                if fanout_browse(&pinned, &query).canonical() != answer.canonical() {
                    self.mismatches += 1;
                }
            }
        }
        (answer, done)
    }

    /// Browse every query back to back (a closed loop), checking every
    /// `CHECK_EVERY`th answer.
    pub fn closed_loop(&mut self, handle: &ServeHandle, queries: &[Vec<String>]) {
        for (i, query) in queries.iter().enumerate() {
            self.browse(handle, query, Instant::now(), i % CHECK_EVERY == 0);
        }
    }
}

fn options() -> PipelineOptions {
    PipelineOptions {
        expansion: ExpansionOptions { threads: 1 },
        ..PipelineOptions::default()
    }
}

/// Sleep, then yield, until `due`.
fn wait_until(due: Instant) {
    while let Some(left) = due.checked_duration_since(Instant::now()) {
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Run `rounds` rounds, each set up afresh (and timed) then measured.
pub fn run(cfg: &Config, rounds: usize, traced: bool) -> Measured {
    let appends = ((cfg.round_seconds * 1e3) as u64 / CADENCE_MS).max(1) as usize;
    let recorder = if traced {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let mut measured = Vec::new();
    for _ in 0..rounds {
        let start = Instant::now();
        let bundle = inputs::bundle(RecipeKind::Snyt, INITIAL + BATCH * appends, cfg.seed);
        let subs = Substrates::new(&bundle);
        let backends = Backends::new(&subs);
        let probes = Probes::new(&subs, &backends);
        let docs = inputs::docs(&bundle);
        let mut index =
            ShardedFacetIndex::new(2, probes.extractors(), probes.resources(), options())
                .with_recorder(recorder.clone());
        index
            .append(docs[..INITIAL].to_vec())
            .expect("generated documents are well-formed");
        let server = FacetServer::new(index);
        let setup_s = start.elapsed().as_secs_f64();
        measured.push(measure(
            cfg,
            traced,
            &probes,
            server,
            &docs[INITIAL..],
            setup_s,
        ));
    }
    report::combine(measured)
}

#[derive(Default)]
struct WriterLog {
    append_ms: Vec<f64>,
    docs: usize,
    reused: u64,
    new: u64,
    failed: u64,
}

fn measure(
    cfg: &Config,
    traced: bool,
    probes: &Probes<'_>,
    server: FacetServer<'_>,
    tail: &[Document],
    setup_s: f64,
) -> Measured {
    let handle = server.handle();
    let pool = inputs::label_pool(server.snapshot().merged());
    let n_queries = ((cfg.round_seconds * RATE_QPS) as usize).max(1);
    let queries = inputs::queries(&pool, n_queries, cfg.seed);
    let recorder = server.index().recorder().clone();
    let program_before = recorder.snapshot();
    let terms_before = probes.extracted_terms();
    let cache_before = report::resource_cache(server.index());
    let serve_before = handle.cache_stats();
    let first_generation = handle.generation();
    let starts = Mutex::new(Vec::new());
    probe::reset_allocs();
    probe::enable(traced);
    // A millisecond of slack so neither thread starts behind schedule.
    let t0 = Instant::now() + Duration::from_millis(1);
    let (writer, server, log, visible_ms) = std::thread::scope(|s| {
        let starts = &starts;
        let writer = s.spawn(move || write(server, tail, t0, starts));
        let (log, visible_ms) = generate(&handle, &queries, t0, first_generation, starts);
        let (writer, server) = writer.join().expect("the writer thread does not panic");
        (writer, server, log, visible_ms)
    });
    probe::enable(false);
    let spans = probe::take_spans();

    // Deterministic for a seed: the final content, then a fan-out browse
    // of every pool label at the final generation.
    let last = server.snapshot();
    let mut digest = inputs::content_digest(last.merged());
    for label in &pool {
        inputs::fold(
            &mut digest,
            fanout_browse(&last, &[label.as_str()])
                .canonical()
                .as_bytes(),
        );
    }
    let expected = first_generation + tail.chunks(BATCH).count() as u64;
    let attempted =
        writer.append_ms.len() as u64 + writer.failed + log.lat_us.len() as u64 + log.checks + 1;
    let mut failed = writer.failed + log.mismatches;
    if last.generation() != expected {
        eprintln!(
            "perfbench: generation {} after the run, expected {expected}",
            last.generation()
        );
        failed += 1;
    }

    let samples = Samples {
        setup_s,
        docs_per_step: BATCH as f64,
        step_ms: writer.append_ms.clone(),
        append_ms: writer.append_ms.clone(),
        visible_ms,
        browse_us: log.lat_us.clone(),
    };
    let primary = inputs::median(&log.lat_us);
    let layers = if traced {
        let (hits, misses) = report::resource_cache(server.index());
        let intern = server.index().intern_stats();
        let mut layer = LayerInputs {
            passes: 1.0,
            program_ms: report::program_ms(&program_before, &recorder.snapshot()),
            terms_extracted: probes.extracted_terms() - terms_before,
            cache_hits: hits - cache_before.0,
            cache_misses: misses - cache_before.1,
            reused_terms: writer.reused,
            new_terms: writer.new,
            intern_hit_rate: intern.hit_rate(),
            intern_len: intern.len as u64,
            append_ms: writer.append_ms,
            browses: log,
            ..LayerInputs::default()
        };
        report::add_serve(&mut layer.serve, serve_before, handle.cache_stats());
        report::per_layer(&spans, &layer)
    } else {
        Metrics::default()
    };
    Measured {
        samples,
        e2e: Metrics::default(),
        layers,
        primary,
        attempted,
        failed,
        digest,
        spans,
    }
}

/// The writer: one batch every `CADENCE_MS` from `t0`, each call's start
/// recorded before the call so the reader can time its visibility.
fn write<'a>(
    mut server: FacetServer<'a>,
    tail: &[Document],
    t0: Instant,
    starts: &Mutex<Vec<Instant>>,
) -> (WriterLog, FacetServer<'a>) {
    probe::bench_thread();
    let mut log = WriterLog::default();
    for (k, batch) in tail.chunks(BATCH).enumerate() {
        wait_until(t0 + Duration::from_millis(CADENCE_MS * k as u64));
        let batch = batch.to_vec();
        let start = Instant::now();
        starts
            .lock()
            .expect("no thread panics while holding the start list")
            .push(start);
        let appended = {
            let _span = probe::call(Layer::Index, "index.server_append", true);
            server.append(batch)
        };
        let took = start.elapsed();
        match appended {
            Ok(stats) => {
                log.append_ms.push(ms(took));
                log.docs += stats.docs;
                log.reused += stats.reused_terms as u64;
                log.new += stats.new_distinct_terms as u64;
            }
            Err(e) => {
                eprintln!("perfbench: FacetServer::append failed: {e}");
                log.failed += 1;
            }
        }
    }
    (log, server)
}

/// The generator: offer `queries` at `RATE_QPS` from `t0`. Returns the
/// browse log and, per published generation, the time from its append
/// call to the first browse answered at it.
fn generate(
    handle: &ServeHandle,
    queries: &[Vec<String>],
    t0: Instant,
    first_generation: u64,
    starts: &Mutex<Vec<Instant>>,
) -> (BrowseLog, Vec<f64>) {
    let mut log = BrowseLog::default();
    let mut visible_ms = Vec::new();
    let mut seen = first_generation;
    for (i, query) in queries.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(i as f64 / RATE_QPS);
        wait_until(due);
        let (answer, done) = log.browse(handle, query, due, i % CHECK_EVERY == 0);
        if answer.generation > seen {
            let starts = starts
                .lock()
                .expect("no thread panics while holding the start list");
            for generation in seen + 1..=answer.generation {
                if let Some(start) = starts.get((generation - first_generation - 1) as usize) {
                    visible_ms.push(ms(done.saturating_duration_since(*start)));
                }
            }
            seen = answer.generation;
        }
    }
    (log, visible_ms)
}
