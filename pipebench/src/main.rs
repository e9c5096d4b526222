//! `pipebench`: the end-to-end benchmark of the `qrn serve` pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path pipebench/Cargo.toml -- \
//!     --workload ingest_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the root of a checkout. It builds `qrn` from that checkout,
//! starts `qrn serve` as its own process and drives it over loopback HTTP
//! with the named workload's seeded operations. With `--trace 0` the
//! last stdout line carries the end-to-end metrics; with `--trace 1` the
//! same run is followed by a traced in-process replay and the last line
//! carries the per-layer metrics. Any wrong answer fails the run.
//! Working files, the per-run result and the span log go under
//! `.bench_out/`.

mod drive;
mod replay;
mod server;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use drive::{Case, Outcome};
use stats::{median, percentile, Reported};
use workload::{Workload, WORKLOAD_NAMES};

const USAGE: &str = "usage: pipebench --workload <ingest_hot|ingest_durable|fleet_query> \
                     --seed <n> --seconds <n> --trace <0|1> [--smoke]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload: value("--workload")?.clone(),
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace,
        smoke: args.iter().any(|a| a == "--smoke"),
    })
}

/// Removes a run's working directory (store, checkpoint, artefacts) on
/// every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The checkout's commit, or `unknown` when it is not a git work tree
/// (git is not asked to search the directories above it).
fn git_commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One reported metric, with how it was sampled.
struct Line {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
    percentile: Option<f64>,
}

fn timing(name: &'static str, r: Reported) -> Line {
    Line {
        name,
        value: r.value,
        unit: "ms",
        samples: r.samples,
        percentile: Some(r.percentile),
    }
}

fn plain(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Line {
    Line {
        name,
        value,
        unit,
        samples,
        percentile: None,
    }
}

/// The end-to-end metrics of one untraced run.
fn end_to_end(o: &Outcome) -> Vec<Line> {
    let events = o.accepted_events as f64;
    vec![
        plain("setup_s", median(&o.setup_s), "s", o.setup_s.len()),
        plain(
            "ingest_events_per_s",
            events / o.phase_s,
            "1/s",
            o.ingest_ms.len(),
        ),
        timing("ingest_p50_ms", percentile(&o.ingest_ms, 50.0)),
        timing("burndown_p50_ms", percentile(&o.burndown_ms, 50.0)),
        timing("burndown_p90_ms", percentile(&o.burndown_ms, 90.0)),
        timing("metrics_p50_ms", percentile(&o.metrics_ms, 50.0)),
        plain("server_peak_rss_mb", o.peak_rss_mb, "MiB", 1),
        plain(
            "server_cpu_us_per_event",
            o.server_cpu_s * 1e6 / events,
            "us",
            o.ingest_ms.len(),
        ),
    ]
}

/// Metrics printed with the run's details but kept out of the result
/// line: `failed_frac` reads 0, `as_of` and the restart exist only with a
/// store, and the upload p90 and p99 spread past any bound on `fleet_query`
/// (see `spec.json`).
fn details(o: &Outcome) -> Vec<Line> {
    let mut lines = vec![
        plain(
            "failed_frac",
            o.failed as f64 / o.attempted.max(1) as f64,
            "ratio",
            o.attempted as usize,
        ),
        timing("ingest_p90_ms", percentile(&o.ingest_ms, 90.0)),
        timing("ingest_p99_ms", percentile(&o.ingest_ms, 99.0)),
    ];
    if let Some(recover_s) = o.recover_s {
        lines.push(plain("recover_s", recover_s, "s", 1));
    }
    if !o.as_of_ms.is_empty() {
        lines.push(timing("as_of_p50_ms", percentile(&o.as_of_ms, 50.0)));
    }
    lines
}

fn json_number(value: f64) -> String {
    format!("{value}")
}

fn metrics_object(lines: &[Line]) -> String {
    let mut out = String::from("{");
    for (i, line) in lines.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            line.name,
            json_number(line.value),
            line.unit
        );
    }
    out.push('}');
    out
}

fn provenance(
    args: &Args,
    root: &Path,
    o: &Outcome,
    workload: &Workload,
    lines: &[&Line],
) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let mut timings = String::from("{");
    for (i, line) in lines.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let percentile = line
            .percentile
            .map_or_else(|| "null".to_string(), json_number);
        let _ = write!(
            timings,
            "{sep}\"{}\": {{\"samples\": {}, \"percentile\": {percentile}}}",
            line.name, line.samples
        );
    }
    timings.push('}');
    let gates: Vec<String> = o
        .gates
        .iter()
        .map(|(name, ok, detail)| {
            format!("{{\"gate\": \"{name}\", \"passed\": {ok}, \"detail\": \"{detail}\"}}")
        })
        .collect();
    let windows: Vec<String> = o.window_rates.iter().map(|r| json_number(*r)).collect();
    let stages: Vec<String> = o
        .stages
        .iter()
        .map(|(name, secs)| format!("\"{name}\": {}", json_number(*secs)))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"host_cpus\": {host_cpus}, \"git_commit\": \"{}\", \"roster\": {}, \
         \"warmup_excluded\": {{\"setups\": {}, \"roster_uploads\": \"one line per vehicle\", \
         \"warmup_uploads\": {}}}, \"timed_requests\": {{\"uploads\": {}, \"burndowns\": {}, \
         \"metrics\": {}}}, \"phase_s\": {}, \"window_events_per_s\": [{}], \"stage_s\": {{{}}}, \"gates\": [{}], \"timings\": {timings}}}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        git_commit(root),
        workload.roster,
        workload.setups,
        workload.warmup_uploads,
        o.timed_counts[0],
        o.timed_counts[1],
        o.timed_counts[2],
        json_number(o.phase_s),
        windows.join(", "),
        stages.join(", "),
        gates.join(", "),
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let workload = Workload::named(&args.workload, args.smoke).ok_or_else(|| {
        format!(
            "unknown workload {:?}; choose one of {}",
            args.workload,
            WORKLOAD_NAMES.join(", ")
        )
    })?;
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let qrn = server::build_qrn(&root)?;
    let out_dir = root.join(".bench_out");
    let work = WorkDir(out_dir.join(format!(
        "work-{}-{}-{}",
        workload.name,
        args.seed,
        std::process::id()
    )));
    let case_dir = work.0.join("case");
    std::fs::create_dir_all(&case_dir).map_err(|e| format!("cannot create work dir: {e}"))?;
    server::emit_artefacts(&qrn, &case_dir)?;
    let case = Case::load(&case_dir)?;

    let (outcome, inputs) = drive::drive(&qrn, &case, &workload, &work.0, args.seed, args.seconds)?;
    let e2e = end_to_end(&outcome);
    let extra = details(&outcome);
    let stem = format!("{}-seed{}", workload.name, args.seed);
    let (layer, layer_details) = if args.trace {
        let spans = out_dir.join(format!("{stem}.spans.jsonl"));
        let (layer, details) =
            replay::replay(&case, &workload, &inputs, args.seed, &outcome, &work.0, &spans)?;
        (Some(layer), details)
    } else {
        (None, Vec::new())
    };

    let correct = outcome.gates.iter().all(|(_, ok, _)| *ok);
    for line in e2e.iter().chain(&extra) {
        let sampled = match line.percentile {
            Some(p) => format!(" (n={}, p{p})", line.samples),
            None => format!(" (n={})", line.samples),
        };
        println!(
            "{:<28} {:>14.4} {}{sampled}",
            line.name, line.value, line.unit
        );
    }
    for (name, value, unit) in layer.iter().flatten().chain(&layer_details) {
        println!("{name:<34} {value:>14.4} {unit}");
    }
    for (name, ok, detail) in &outcome.gates {
        println!(
            "gate {name}: {} ({detail})",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    let timed: Vec<&Line> = e2e.iter().chain(&extra).collect();
    let provenance = provenance(args, &root, &outcome, &workload, &timed);
    println!("provenance {provenance}");

    let reported: Vec<Line> = match &layer {
        None => e2e,
        Some(layer) => layer
            .iter()
            .map(|&(name, value, unit)| plain(name, value, unit, 0))
            .collect(),
    };
    if let Some(bad) = reported.iter().find(|l| !l.value.is_finite()) {
        return Err(format!("{} did not produce a finite value", bad.name));
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_object(&reported)
    );
    let details: Vec<Line> = extra
        .into_iter()
        .chain(
            layer_details
                .iter()
                .map(|&(name, value, unit)| plain(name, value, unit, 0)),
        )
        .collect();
    let record = format!(
        "{{\"provenance\": {provenance}, \"details\": {}, \"result\": {result}}}\n",
        metrics_object(&details)
    );
    let record_path = out_dir.join(format!("{stem}-trace{}.json", u8::from(args.trace)));
    std::fs::write(&record_path, record).map_err(|e| format!("cannot write result: {e}"))?;
    println!("{result}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("pipebench: a correctness gate failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("pipebench: {e}");
            ExitCode::FAILURE
        }
    }
}
