//! Regenerate every table and figure of the paper's evaluation section.
//!
//! ```text
//! experiments <command> [--scale <f>] [--top-k <n>] [--json] [--obs <path>]
//!
//! Commands:
//!   table1        Pilot-study facets (Table I) + the 65% missing-term stat
//!   figure4       Most frequent annotator facet terms
//!   figure5       Plain-subsumption baseline terms
//!   table2        Recall grid, SNYT      table5   Precision grid, SNYT
//!   table3        Recall grid, SNB       table6   Precision grid, SNB
//!   table4        Recall grid, MNYT      table7   Precision grid, MNYT
//!   dimensions    Recall per facet dimension + candidate composition
//!   ablation      Selection statistic + hierarchy construction ablation
//!   baselines     Related-work baselines vs the paper's pipeline
//!   sensitivity   Facet-term discovery vs sample size
//!   efficiency    Component throughput (Section V-D)
//!   userstudy     Simulated 5×5 user study (Section V-E)
//!   all           Everything above
//! ```
//!
//! `--scale` shrinks document counts (1.0 = paper scale; default 1.0).
//! `--obs <path>` enables the observability recorder: a JSON metrics
//! report (stage spans, per-resource query counts and latency
//! histograms, cache hit/miss) is written to `<path>` and a per-stage
//! time table is printed to stderr.

use facet_bench::drivers;
use facet_core::MAX_TOP_K;
use facet_corpus::RecipeKind;
use facet_obs::Recorder;

#[derive(Debug)]
struct Args {
    command: String,
    scale: f64,
    top_k: usize,
    json: bool,
    obs: Option<String>,
    recorder: Recorder,
}

/// Parse the arguments after the program name. A flag missing its value,
/// an unparsable `--scale` (or one not a positive number) or `--top-k`
/// (or one above [`MAX_TOP_K`]), and an unknown flag are errors naming
/// the flag and the value.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut command = String::from("all");
    let mut scale = 1.0f64;
    let mut top_k = 2000usize;
    let mut json = false;
    let mut obs: Option<String> = None;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{arg} requires {what}"))
                .cloned()
        };
        match arg.as_str() {
            "--json" => json = true,
            "--scale" => {
                let v = value("a value")?;
                scale = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--scale expects a positive number, got `{v}`"))?;
            }
            "--top-k" => {
                let v = value("a value")?;
                top_k = v
                    .parse()
                    .map_err(|_| format!("--top-k expects a whole number, got `{v}`"))?;
                if top_k > MAX_TOP_K {
                    return Err(format!("--top-k expects at most {MAX_TOP_K}, got `{v}`"));
                }
            }
            "--obs" => obs = Some(value("a file path")?),
            c if !c.starts_with("--") => command = c.to_string(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let recorder = if obs.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    Ok(Args {
        command,
        scale,
        top_k,
        json,
        obs,
        recorder,
    })
}

/// Write the metrics report to `--obs <path>` (JSON) and print the
/// per-stage time table to stderr. No-op when `--obs` was not given.
fn dump_obs(args: &Args) {
    let Some(path) = &args.obs else { return };
    let report = args.recorder.snapshot();
    let json = facet_jsonio::to_json_string_pretty(&report).expect("metrics serialize");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("failed to write metrics to {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("\n-- stage times ({path}) --\n{}", report.stage_table());
}

fn show(table: &facet_eval::Table, args: &Args) {
    if args.json {
        println!(
            "{}",
            facet_jsonio::to_json_string_pretty(table).expect("table serializes")
        );
    } else {
        println!("{}", table.render());
    }
}

fn recall_precision(kind: RecipeKind, which: &str, args: &Args) {
    let (recall, precision, gold_n) =
        drivers::run_dataset_tables(kind, args.scale, args.top_k, &args.recorder);
    println!(
        "Gold standard: {gold_n} distinct facet terms ({}).",
        kind.name()
    );
    match which {
        "recall" => show(&recall, args),
        "precision" => show(&precision, args),
        _ => {
            show(&recall, args);
            show(&precision, args);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    match args.command.as_str() {
        "table1" => {
            let (t, missing) = drivers::run_pilot(args.scale);
            println!("{}", t.render());
            println!(
                "Facet terms absent from the story text: {:.0}% (paper: 65%)",
                missing * 100.0
            );
        }
        "pilot-missing" => {
            let (_t, missing) = drivers::run_pilot(args.scale);
            println!(
                "Facet terms absent from the story text: {:.0}% (paper: 65%)",
                missing * 100.0
            );
        }
        "figure4" => {
            println!("Most frequent annotator-identified facet terms (Figure 4):");
            for (term, count) in drivers::run_figure4(args.scale, 60) {
                println!("  {term}  ({count} stories)");
            }
        }
        "figure5" => {
            println!("Plain-subsumption baseline terms (Figure 5):");
            println!("  {}", drivers::run_figure5(args.scale, 25).join(", "));
        }
        "table2" => recall_precision(RecipeKind::Snyt, "recall", &args),
        "table3" => recall_precision(RecipeKind::Snb, "recall", &args),
        "table4" => recall_precision(RecipeKind::Mnyt, "recall", &args),
        "table5" => recall_precision(RecipeKind::Snyt, "precision", &args),
        "table6" => recall_precision(RecipeKind::Snb, "precision", &args),
        "table7" => recall_precision(RecipeKind::Mnyt, "precision", &args),
        "snyt" => recall_precision(RecipeKind::Snyt, "both", &args),
        "snb" => recall_precision(RecipeKind::Snb, "both", &args),
        "mnyt" => recall_precision(RecipeKind::Mnyt, "both", &args),
        "dimensions" => {
            let (dims, comp) =
                drivers::run_dimensions(RecipeKind::Snyt, args.scale, args.top_k, &args.recorder);
            show(&dims, &args);
            show(&comp, &args);
        }
        "ablation" => {
            println!(
                "{}",
                drivers::run_ablation(args.scale, args.top_k, &args.recorder).render()
            );
        }
        "baselines" => {
            println!(
                "{}",
                drivers::run_baselines(args.scale, args.top_k, &args.recorder).render()
            );
        }
        "sensitivity" => {
            println!(
                "{}",
                drivers::run_sensitivity(RecipeKind::Snyt, args.scale).render()
            );
        }
        "efficiency" => {
            println!(
                "{}",
                drivers::run_efficiency(RecipeKind::Snyt, args.scale, 200).render()
            );
        }
        "userstudy" => {
            println!(
                "{}",
                drivers::run_user_study_experiment(args.scale, &args.recorder).render()
            );
        }
        "all" => {
            let (t, missing) = drivers::run_pilot(args.scale);
            println!("{}", t.render());
            println!(
                "Facet terms absent from the story text: {:.0}% (paper: 65%)\n",
                missing * 100.0
            );
            println!("Most frequent annotator facet terms (Figure 4):");
            for (term, count) in drivers::run_figure4(args.scale, 40) {
                println!("  {term}  ({count})");
            }
            println!("\nPlain-subsumption baseline terms (Figure 5):");
            println!("  {}\n", drivers::run_figure5(args.scale, 25).join(", "));
            for kind in RecipeKind::ALL {
                recall_precision(kind, "both", &args);
            }
            println!(
                "{}",
                drivers::run_ablation(args.scale, args.top_k, &args.recorder).render()
            );
            println!(
                "{}",
                drivers::run_baselines(args.scale, args.top_k, &args.recorder).render()
            );
            let (dims, comp) =
                drivers::run_dimensions(RecipeKind::Snyt, args.scale, args.top_k, &args.recorder);
            println!("{}", dims.render());
            println!("{}", comp.render());
            println!(
                "{}",
                drivers::run_sensitivity(RecipeKind::Snyt, args.scale).render()
            );
            println!(
                "{}",
                drivers::run_efficiency(RecipeKind::Snyt, args.scale, 200).render()
            );
            println!(
                "{}",
                drivers::run_user_study_experiment(args.scale, &args.recorder).render()
            );
        }
        other => {
            eprintln!("unknown command {other}; see the doc comment for usage");
            std::process::exit(2);
        }
    }
    dump_obs(&args);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_values() {
        let a = parse(&[]).unwrap();
        assert_eq!((a.command.as_str(), a.scale, a.top_k), ("all", 1.0, 2000));
        assert!(!a.json && a.obs.is_none());
        let a = parse(&["table2", "--scale", "0.1", "--top-k", "300", "--json"]).unwrap();
        assert_eq!((a.command.as_str(), a.scale, a.top_k), ("table2", 0.1, 300));
        assert!(a.json);
        let a = parse(&["--obs", "m.json", "ablation"]).unwrap();
        assert_eq!(a.obs.as_deref(), Some("m.json"));
        assert_eq!(a.command, "ablation");
    }

    #[test]
    fn bad_values_name_the_flag_and_the_value() {
        for (args, want) in [
            (
                &["--scale", "0.1x"][..],
                "--scale expects a positive number, got `0.1x`",
            ),
            (
                &["--scale", "-1"],
                "--scale expects a positive number, got `-1`",
            ),
            (
                &["--scale", "NaN"],
                "--scale expects a positive number, got `NaN`",
            ),
            (
                &["--scale", "--json"],
                "--scale expects a positive number, got `--json`",
            ),
            (
                &["--top-k", "2k"],
                "--top-k expects a whole number, got `2k`",
            ),
            (
                &["--top-k", "-5"],
                "--top-k expects a whole number, got `-5`",
            ),
            (
                &["--top-k", "4097"],
                "--top-k expects at most 4096, got `4097`",
            ),
            (&["table3", "--scale"], "--scale requires a value"),
            (&["--top-k"], "--top-k requires a value"),
            (&["--obs"], "--obs requires a file path"),
            (&["--fast"], "unknown flag --fast"),
        ] {
            assert_eq!(parse(args).unwrap_err(), want, "{args:?}");
        }
    }
}
