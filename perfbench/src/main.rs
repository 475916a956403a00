//! Seeded lifecycle benchmark for the facet-hierarchies workspace.
//!
//! ```text
//! perfbench --workload <bulk_build|trickle_restart|browse_under_ingest>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root; see `perfbench/README.md`. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, taken over four rounds that each set up afresh and
//! measure for a quarter of `--seconds`, every operation at the fastest
//! of its four repeats. With
//! `--trace 1` the workload
//! runs one round twice, plain and then
//! with spans and allocation counting on, and the object carries every
//! per-layer metric; the spans go to
//! `.bench_work/trace-<workload>-<seed>.jsonl`.

mod browse;
mod bulk;
mod inputs;
mod probe;
mod report;
mod trickle;
mod wrap;

use std::path::PathBuf;

#[global_allocator]
static GLOBAL: probe::CountingAlloc = probe::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <bulk_build|trickle_restart|browse_under_ingest> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Rounds per untraced run. Each round sets the workload up afresh and
/// measures for `--seconds / ROUNDS`; the end-to-end metrics count each
/// operation at the fastest of its repeats across the rounds.
const ROUNDS: usize = 4;

/// What every workload receives.
pub struct Config {
    /// Seed of the generated documents and query streams.
    pub seed: u64,
    /// How long one round measures, in seconds.
    pub round_seconds: f64,
    /// This run's scratch directory.
    pub work: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["bulk_build", "trickle_restart", "browse_under_ingest"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2)
    });
    probe::bench_thread();
    let root = PathBuf::from(".bench_work");
    let cfg = Config {
        seed: args.seed,
        round_seconds: args.seconds / ROUNDS as f64,
        work: root.join(format!("{}-{}", args.workload, std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("perfbench: creating {}: {e}", cfg.work.display());
        std::process::exit(1);
    }
    let run = |rounds: usize, traced: bool| match args.workload.as_str() {
        "bulk_build" => bulk::run(&cfg, rounds, traced),
        "trickle_restart" => trickle::run(&cfg, rounds, traced),
        _ => browse::run(&cfg, rounds, traced),
    };
    let (names, metrics, attempted, failed, digest) = if args.trace {
        let plain = run(1, false);
        let traced = run(1, true);
        let mut layers = traced.layers;
        layers.set("trace.overhead_frac", traced.primary / plain.primary - 1.0);
        let path = root.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = report::write_trace(&path, &traced.spans) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        let diverged = u64::from(plain.digest != traced.digest);
        if diverged > 0 {
            eprintln!("perfbench: the traced run ended in another state than the plain run");
        }
        (
            report::PER_LAYER,
            layers,
            plain.attempted + traced.attempted + 1,
            plain.failed + traced.failed + diverged,
            traced.digest,
        )
    } else {
        let measured = run(ROUNDS, false);
        (
            report::END_TO_END,
            measured.e2e,
            measured.attempted,
            measured.failed,
            measured.digest,
        )
    };
    // Best effort: a leftover scratch directory is harmless.
    let _ = std::fs::remove_dir_all(&cfg.work);

    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} digest={digest:016x}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, unit) in names {
        println!("{name} = {} {unit}", metrics.get(name).unwrap_or(f64::NAN));
    }
    println!(
        "{}",
        report::result_json(attempted, failed, names, &metrics)
    );
}
