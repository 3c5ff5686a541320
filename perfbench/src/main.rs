//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <plan_mixed|flow_congested|serve_mixed> --seed <n>
//!           --seconds <n> --trace <0|1> [--crserve <path>]
//! ```
//!
//! Each run generates its inputs from `--seed`, sets up, measures for
//! `--seconds`, checks every answer outside the timed window, prints a
//! human-readable report, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones ([`END_TO_END`]);
//! with `--trace 1` a separate traced run reports the per-layer ones
//! ([`per_layer`]) and writes its spans to `.perfbench/`. The exit code
//! is 1 when any answer check fails, 2 on a usage error.
//!
//! Build and run it through `run.sh`, which also builds `crserve`.

mod batch;
mod check;
mod gen;
mod layers;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics: reported by every workload with `--trace 0`.
/// `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("nets_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("scenario_p50_ms", "ms"),
    ("scenario_tail_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("wire_mm", "mm"),
    ("net_latency_ps", "ps"),
];

/// Metrics printed in the human-readable report only: they apply to
/// one workload or can read 0, so they cannot carry a bound on every
/// workload. Each maps to the key it is stored under.
const REPORT_ONLY: [(&str, &str, &str); 7] = [
    ("req_p50_ms", "req_p50_ms", "ms"),
    ("req_p99_ms", "req_p99_ms", "ms"),
    ("hit_p50_ms", "service.hit_p50_ms", "ms"),
    ("recovery_s", "service.recovery_s", "s"),
    ("failed_share", "failed_share", "share"),
    ("degraded_nets", "quality.degraded_nets", "count"),
    ("overflow", "flow.overflow", "count"),
];

/// Per-layer metrics: reported by every workload with `--trace 1`
/// (0 where the workload does not reach the layer). `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for stage in layers::STAGES {
        for (name, unit) in [
            ("pops", "count"),
            ("pushed", "count"),
            ("pruned", "count"),
            ("goal_pruned", "count"),
            ("front_comparisons", "count"),
            ("max_queue", "count"),
            ("arena_bytes", "B"),
            ("waves", "count"),
            ("solve_ms", "ms"),
            ("ns_per_pop", "ns"),
            ("goal_prune_ratio", "ratio"),
        ] {
            v.push((format!("core.{stage}.{name}"), unit));
        }
    }
    for (name, unit) in [
        ("flow.rounds", "count"),
        ("flow.price_updates", "count"),
        ("flow.ripups", "count"),
        ("flow.legalize_ms", "ms"),
        ("flow.fractional_ms", "ms"),
        ("flow.overflow", "count"),
        ("plan.net.solve_p50_ms", "ms"),
        ("plan.net.solve_tail_ms", "ms"),
        ("plan.warm.reuse_ratio", "ratio"),
        ("cli.scenario.parse_us", "us"),
        ("service.keys.fingerprint_us", "us"),
        ("service.shard.lookup_us", "us"),
        ("service.transport_us", "us"),
        ("grid.build_ms", "ms"),
        ("cli.report.render_us", "us"),
        ("service.persist.encode_us", "us"),
        ("service.persist.append_fsync_ms", "ms"),
        ("service.persist.replay_ms", "ms"),
        ("service.hits", "count"),
        ("service.misses", "count"),
        ("service.coalesced", "count"),
        ("service.warm_reuse", "count"),
        ("service.evictions", "count"),
        ("service.rejects", "count"),
        ("service.pool.backlog", "count"),
        ("service.hit_p50_ms", "ms"),
        ("service.recovery_s", "s"),
        ("core.drc.check_us", "us"),
        ("quality.degraded_nets", "count"),
        ("quality.failed_share", "share"),
        ("trace.unaccounted_share", "share"),
        ("trace.overhead_share", "share"),
    ] {
        v.push((name.to_owned(), unit));
    }
    v
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<String, f64>,
    /// Failure messages, printed before the result.
    pub notes: Vec<String>,
    /// The percentile `scenario_tail_ms` reports.
    pub tail_percentile: f64,
    /// Consecutive parts of the run whose tails `scenario_tail_ms` is
    /// the median of (0 or 1: the whole run).
    pub tail_parts: usize,
    /// The traced run's self-time table.
    pub table: Option<layers::Table>,
    /// Every set-up time measured; `setup_s` is their median.
    pub setup_samples: Vec<f64>,
    /// Values that are a pure function of the seed, printed on one line
    /// so two runs of one seed can be compared (`stability.sh`).
    pub deterministic: Vec<(String, String)>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            attempted,
            failed,
            ..Outcome::default()
        }
    }

    /// A run that could not complete: one attempted operation, failed.
    pub fn broken(reason: String) -> Outcome {
        let mut out = Outcome::new(1, 1);
        out.notes.push(reason);
        out
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    crserve: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <plan_mixed|flow_congested|serve_mixed> \
                     --seed <n> --seconds <n> --trace <0|1> [--crserve <path>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        crserve: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs an integer"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--crserve" => args.crserve = Some(PathBuf::from(&value)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !["plan_mixed", "flow_congested", "serve_mixed"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The host stamp every result carries: wall-clock numbers compare only
/// between runs with the same stamp.
fn host_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned());
    // Only a checkout that is itself a git work tree has a revision;
    // never let git search the directories above it.
    let rev = std::path::Path::new(".git")
        .exists()
        .then(|| command_output("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten();
    let dirty = match &rev {
        Some(_) => command_output("git", &["status", "--porcelain", "--untracked-files=no"])
            .map_or("unknown", |s| if s.is_empty() { "no" } else { "yes" }),
        None => "unknown",
    };
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" rev={} dirty={dirty}",
        rev.as_deref().unwrap_or("unknown")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let trace_dir = PathBuf::from(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&trace_dir) {
        eprintln!("error: cannot create {}: {e}", trace_dir.display());
        return ExitCode::from(2);
    }
    let trace_path = trace_dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    let crserve = || {
        args.crserve
            .clone()
            .filter(|p| p.is_file())
            .ok_or_else(|| "serve_mixed needs --crserve <path to a built crserve>".to_owned())
    };
    let (seed, secs) = (args.seed, args.seconds);
    let mut out = match (args.workload.as_str(), args.trace) {
        ("plan_mixed", false) => batch::run(batch::Mode::Plan, seed, secs),
        ("plan_mixed", true) => batch::run_traced(batch::Mode::Plan, seed, secs, &trace_path),
        ("flow_congested", false) => batch::run(batch::Mode::Flow, seed, secs),
        ("flow_congested", true) => batch::run_traced(batch::Mode::Flow, seed, secs, &trace_path),
        (_, traced) => match crserve() {
            Ok(path) if traced => serve::run_traced(&path, seed, secs, &trace_path),
            Ok(path) => serve::run(&path, seed, secs),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    let failed_share = out.failed_share();
    out.set("failed_share", failed_share);
    out.set("quality.failed_share", failed_share);
    let correct = out.failed == 0;

    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload,
        seed,
        secs,
        u8::from(args.trace)
    );
    println!("# host {}", host_stamp());
    for note in out.notes.iter().take(20) {
        println!("# FAILED {note}");
    }
    if out.notes.len() > 20 {
        println!("# FAILED … {} more", out.notes.len() - 20);
    }
    println!(
        "# attempted={} failed={} failed_share={failed_share}",
        out.attempted, out.failed
    );
    if !out.setup_samples.is_empty() {
        let samples: Vec<String> = out
            .setup_samples
            .iter()
            .map(|s| format!("{s:.6}"))
            .collect();
        println!("# setup samples (s): {}", samples.join(" "));
    }
    if !out.deterministic.is_empty() {
        let fields: Vec<String> = out
            .deterministic
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("# deterministic {}", fields.join(" "));
    }
    let mut metrics: Vec<(String, &str)> = Vec::new();
    if args.trace {
        if let Some(table) = &out.table {
            println!("# self time by layer (traced run)");
            for line in table.lines() {
                println!("#   {line}");
            }
        }
        metrics = per_layer();
    } else {
        for (name, unit) in END_TO_END {
            metrics.push((name.to_owned(), unit));
        }
        print!("# scenario_tail_ms is p{:.2}", out.tail_percentile);
        if out.tail_parts > 1 {
            print!(", median of {} consecutive parts' tails", out.tail_parts);
        }
        println!();
        for (name, key, unit) in REPORT_ONLY {
            match out.values.get(key) {
                Some(v) => println!("# {name:<18} {v:>14.4} {unit}"),
                None => println!("# {name:<18} {:>14} (not on this workload)", "n/a"),
            }
        }
    }
    let mut fields = Vec::new();
    for (name, unit) in &metrics {
        let v = out.get(name);
        println!("# {name:<34} {v:>16.4} {unit}");
        fields.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(v)
        ));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let flat: String = text.split_whitespace().collect();
        let mut expected: Vec<(String, &str)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
        expected.extend(per_layer());
        for (name, unit) in &expected {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = ["plan_mixed", "flow_congested", "serve_mixed"];
        for w in workloads {
            assert!(
                flat.contains(&format!("{{\"name\":\"{w}\",\"why\"")),
                "workload {w}"
            );
        }
        assert_eq!(
            flat.matches("\"name\":").count(),
            expected.len() + workloads.len(),
            "BENCHMARK.json names a metric this program does not print"
        );
    }
}
