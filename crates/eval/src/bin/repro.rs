//! `repro` — regenerates every table of the paper from the synthetic
//! workload.
//!
//! ```text
//! cargo run -p seu-eval --release --bin repro -- [COMMAND] [--seed N]
//!     [--csv DIR] [--stats] [--metrics-out PATH]
//! ```
//!
//! The commands live in one table, `COMMANDS`; `repro --help` prints
//! it. How fast the system serves is not measured here: that is
//! `benchmark/` (see `benchmark/README.md` and `BENCHMARK.json`).

use seu_corpus::PaperDatasets;
use seu_eval::experiments::*;
use seu_eval::runner::EvalConfig;
use std::path::{Path, PathBuf};

/// What every command reads.
struct Ctx {
    ds: PaperDatasets,
    config: EvalConfig,
    seed: u64,
    csv_dir: Option<PathBuf>,
}

/// A command: name, help line, what it runs.
type Command = (&'static str, &'static str, fn(&Ctx));

/// The argument parser validates against this table, `usage` prints it
/// and `all` walks it in order, so there is no second list to keep in
/// step.
const COMMANDS: &[Command] = &[
    ("diagnostics", "workload sanity numbers", |c| {
        println!("{}", run_workload_diagnostics(&c.ds).text)
    }),
    (
        "tables-1-6",
        "match/mismatch + d-N/d-S for D1–D3, three methods",
        |c| c.tables("tables_1_6", run_main_tables(&c.ds, &c.config)),
    ),
    ("tables-7-9", "one-byte quantized representatives", |c| {
        c.tables("tables_7_9", run_quantized_tables(&c.ds, &c.config))
    }),
    ("tables-10-12", "estimated (triplet) max weights", |c| {
        c.tables("tables_10_12", run_triplet_tables(&c.ds, &c.config))
    }),
    ("scalability", "§3.2 representative-size table", |c| {
        println!("{}", run_scalability(&c.ds, c.seed).text)
    }),
    ("guarantee", "§3.1 single-term identification check", |c| {
        println!("{}", run_guarantee(&c.ds, &c.config.thresholds).text)
    }),
    (
        "ablation-subranges",
        "subrange-count / max-subrange ablation",
        |c| print!("{}", run_ablation_subranges(&c.ds, &c.config).text),
    ),
    ("ablation-disjoint", "gGlOSS disjoint baseline", |c| {
        print!("{}", run_ablation_disjoint(&c.ds, &c.config).text)
    }),
    (
        "ablation-grid",
        "grid-convolution resolution ablation",
        |c| print!("{}", run_ablation_grid(&c.ds, &c.config).text),
    ),
    (
        "ranking",
        "E11: 53-database ranking (subrange vs CORI vs ...)",
        |c| {
            let queries: Vec<Vec<String>> = c.ds.queries.iter().take(1500).cloned().collect();
            println!("{}", run_many_database_ranking(c.seed, &queries, 0.15).text)
        },
    ),
    (
        "long-queries",
        "E12: 12-term queries, exact vs grid expansion",
        |c| print!("{}", run_long_queries(&c.ds, c.seed, &c.config).text),
    ),
    (
        "hierarchy",
        "E13: front door over 8 replicas vs flat broker, 53 databases",
        |c| {
            let queries: Vec<Vec<String>> = c.ds.queries.iter().take(800).cloned().collect();
            println!("{}", run_hierarchy(c.seed, &queries, 0.15).text)
        },
    ),
    (
        "selection",
        "E14: precision/recall of usefulness-based selection",
        |c| {
            println!(
                "{}",
                run_selection_quality(&c.ds, &c.config.thresholds).text
            )
        },
    ),
    (
        "gloss-bounds",
        "E15: the gGlOSS similarity-sum bounds claim, measured",
        |c| println!("{}", run_gloss_bounds(&c.ds, &c.config.thresholds).text),
    ),
    (
        "dependence",
        "E16: pairwise term-dependence adjustment on D1",
        |c| println!("{}", run_dependence(&c.ds, &c.config).text),
    ),
    (
        "binary",
        "E17: binary-vector information loss (ref [18])",
        |c| println!("{}", run_binary_baseline(&c.ds, &c.config).text),
    ),
    ("policies", "E18: selection-policy cost/recall sweep", |c| {
        println!("{}", run_policy_sweep(&c.ds, 0.2, 1500).text)
    }),
    (
        "weighting",
        "E19: robustness under log-tf / pivoted weighting",
        |c| print!("{}", run_weighting_robustness(&c.ds, &c.config).text),
    ),
    (
        "exact-percentiles",
        "E20: normal-approximated vs exact subrange medians",
        |c| println!("{}", run_exact_percentiles(&c.ds, &c.config).text),
    ),
];

impl Ctx {
    /// Prints a table experiment and, when `--csv` is given, writes one
    /// CSV per (experiment, database).
    fn tables(&self, tag: &str, out: ExperimentOutput) {
        print!("{}", out.text);
        let Some(dir) = &self.csv_dir else { return };
        for (db, methods) in &out.results {
            let safe_db: String = db
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            let path = dir.join(format!("{tag}_{safe_db}.csv"));
            let mut body = String::from(seu_eval::MethodResult::CSV_HEADER);
            body.push('\n');
            for m in methods {
                body.push_str(&m.to_csv());
            }
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = "all".to_string();
    let mut seed = 42u64;
    let mut csv_dir: Option<PathBuf> = None;
    let mut stats = false;
    let mut metrics_out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(
                    args.get(i)
                        .map(PathBuf::from)
                        .unwrap_or_else(|| usage("--csv needs a directory")),
                );
            }
            "--stats" => stats = true,
            "--metrics-out" => {
                i += 1;
                metrics_out = Some(
                    args.get(i)
                        .map(PathBuf::from)
                        .unwrap_or_else(|| usage("--metrics-out needs a path")),
                );
            }
            "--help" | "-h" => usage(""),
            cmd if !cmd.starts_with('-') => {
                // Rejected here, before the datasets are generated.
                if cmd != "all" && !COMMANDS.iter().any(|(name, ..)| *name == cmd) {
                    usage(&format!("unknown command {cmd}"));
                }
                command = cmd.to_string();
            }
            other => usage(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            usage(&format!("cannot create {}: {e}", dir.display()));
        }
    }

    eprintln!("generating synthetic datasets (seed {seed})...");
    let ctx = Ctx {
        ds: seu_corpus::paper_datasets(seed),
        config: EvalConfig::default(),
        seed,
        csv_dir,
    };
    for (name, _, run) in COMMANDS {
        if command == "all" || command == *name {
            run(&ctx);
        }
    }
    emit_metrics(stats, metrics_out.as_deref());
}

/// Honors `--stats` / `--metrics-out` after the experiments run.
fn emit_metrics(stats: bool, metrics_out: Option<&Path>) {
    if !stats && metrics_out.is_none() {
        return;
    }
    let snapshot = seu_obs::global().snapshot();
    if stats {
        print!("--- metrics ---\n{}", snapshot.to_text());
    }
    if let Some(path) = metrics_out {
        if let Err(e) = std::fs::write(path, snapshot.to_json()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: repro [COMMAND] [--seed N] [--csv DIR] [--stats] [--metrics-out PATH]");
    eprintln!("\nCOMMANDS");
    for (name, about, _) in COMMANDS {
        eprintln!("  {name:<20}{about}");
    }
    eprintln!("  {:<20}everything above (the default)", "all");
    eprintln!("\nFLAGS");
    eprintln!("  --seed N            workload RNG seed (default 42)");
    eprintln!("  --csv DIR           dump per-database CSVs alongside the tables");
    eprintln!("  --stats             print a metrics snapshot after the run");
    eprintln!("  --metrics-out PATH  write the metrics snapshot as JSON");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
