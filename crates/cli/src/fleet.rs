//! The `qrn fleet` subcommand family: synthetic telemetry generation,
//! sharded log ingestion and budget burn-down reporting.
//!
//! The three subcommands compose into the monitoring loop the `qrn-fleet`
//! crate implements:
//!
//! ```text
//! qrn fleet generate --scenario urban --policy cautious --hours 200 \
//!     --vehicles 8 --seed 7 --out case/events.jsonl
//! qrn fleet ingest case/classification.json --log case/events.jsonl
//! qrn fleet report case/norm.json case/classification.json \
//!     case/allocation.json --log case/events.jsonl --out case/fleet.json
//! ```

use std::path::{Path, PathBuf};

use qrn_core::allocation::Allocation;
use qrn_core::examples::paper_classification;
use qrn_core::incident::IncidentRecord;
use qrn_core::norm::QuantitativeRiskNorm;
use qrn_core::object::{Involvement, ObjectType};
use qrn_core::IncidentClassification;
use qrn_fleet::burndown::{BurnDownConfig, ContextFilter};
use qrn_fleet::ingest::{ingest_str, FleetState};
use qrn_fleet::looks::LookBook;
use qrn_fleet::telemetry::{FaultPlan, Policy, Scenario, TelemetryConfig};
use qrn_serve::LedgerSnapshot;
use qrn_sim::monte_carlo::Campaign;
use qrn_sim::policy::{CautiousPolicy, ReactivePolicy, TacticalPolicy};
use qrn_sim::scenario::{
    banded_scenario, highway_scenario, mixed_scenario, urban_scenario, WorldConfig,
};
use qrn_sim::{SplittingConfig, SplittingResult};
use qrn_stats::evidence::EvidenceLedger;
use qrn_stats::special::QuantileMemo;
use qrn_units::{Hours, Speed};

use crate::commands::{
    flag, flag_values, has_flag, parse_f64, print_splitting_rates, required_flag, splitting_from,
};
use crate::io::{read_artefact, write_artefact};
use crate::{CliError, CommandOutcome};

/// Impact speed of collisions injected by `--inject-collisions`: severe
/// enough to land in the harshest collision band of any sane
/// classification.
const INJECTED_IMPACT_KMH: f64 = 45.0;

/// Dispatches a `fleet …` argument vector (without the leading `fleet`).
///
/// # Errors
///
/// Returns [`CliError`] for unknown subcommands, malformed flags, or
/// unreadable artefacts.
pub fn run(rest: &[&str]) -> Result<CommandOutcome, CliError> {
    match rest {
        ["generate", rest @ ..] => generate(rest),
        ["ingest", classification, rest @ ..] => ingest(Path::new(classification), rest),
        ["report", norm, classification, allocation, rest @ ..] => report(
            Path::new(norm),
            Path::new(classification),
            Path::new(allocation),
            rest,
        ),
        [cmd, ..] => Err(CliError(format!(
            "unknown fleet subcommand {cmd:?}; expected generate|ingest|report"
        ))),
        [] => Err(CliError(
            "fleet needs a subcommand: generate|ingest|report".into(),
        )),
    }
}

fn unix_millis_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn parse_u64(text: &str, what: &str) -> Result<u64, CliError> {
    text.parse()
        .map_err(|_| CliError(format!("{what} must be an integer, got {text:?}")))
}

fn parse_usize(text: &str, what: &str) -> Result<usize, CliError> {
    text.parse()
        .map_err(|_| CliError(format!("{what} must be an integer, got {text:?}")))
}

fn shards_from(rest: &[&str]) -> Result<usize, CliError> {
    match flag(rest, "--shards") {
        Some(text) => parse_usize(text, "--shards"),
        None => Ok(std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1)),
    }
}

/// All `--log <path>` segments, in argument order. At least one is
/// required.
fn log_paths(rest: &[&str]) -> Result<Vec<PathBuf>, CliError> {
    let paths: Vec<PathBuf> = flag_values(rest, "--log")
        .into_iter()
        .map(PathBuf::from)
        .collect();
    if paths.is_empty() {
        return Err(CliError("missing required flag --log <value>".into()));
    }
    Ok(paths)
}

fn read_log_file(path: &Path) -> Result<String, CliError> {
    std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read {}: {e}", path.display())))
}

fn generate(rest: &[&str]) -> Result<CommandOutcome, CliError> {
    let scenario_name = required_flag(rest, "--scenario")?;
    let scenario = Scenario::from_name(scenario_name).ok_or_else(|| {
        CliError(format!(
            "unknown scenario {scenario_name:?}; expected urban|highway|mixed|banded"
        ))
    })?;
    let policy_name = required_flag(rest, "--policy")?;
    let policy = Policy::from_name(policy_name).ok_or_else(|| {
        CliError(format!(
            "unknown policy {policy_name:?}; expected cautious|reactive"
        ))
    })?;
    let hours = Hours::new(parse_f64(required_flag(rest, "--hours")?, "--hours")?)?;
    let vehicles = parse_usize(required_flag(rest, "--vehicles")?, "--vehicles")?;
    let splitting = splitting_from(rest)?;
    let out = PathBuf::from(required_flag(rest, "--out")?);
    let seed = flag(rest, "--seed")
        .map(|text| parse_u64(text, "--seed"))
        .transpose()?;
    let workers = flag(rest, "--workers")
        .map(|text| parse_usize(text, "--workers"))
        .transpose()?;

    let mut config = TelemetryConfig::new(vehicles)
        .hours(hours)
        .scenario(scenario)
        .policy(policy);
    if let Some(seed) = seed {
        config = config.seed(seed);
    }
    if let Some(workers) = workers {
        config = config.workers(workers);
    }
    if let Some(count) = flag(rest, "--inject-collisions") {
        let crash = IncidentRecord::collision(
            Involvement::ego_with(ObjectType::Vru),
            Speed::from_kmh(INJECTED_IMPACT_KMH)?,
        );
        config = config.inject(crash, parse_u64(count, "--inject-collisions")?);
    }
    // --stamp-seq numbers each vehicle's lines monotonically so a store
    // or server downstream can reject duplicates and detect holes.
    if has_flag(rest, "--stamp-seq") {
        config = config.stamp_seq(true);
    }
    let mut faults = FaultPlan::default();
    if let Some(text) = flag(rest, "--fault-drop-stride") {
        faults.drop_every = parse_u64(text, "--fault-drop-stride")?;
    }
    if let Some(text) = flag(rest, "--fault-truncate") {
        faults.truncate_every = parse_u64(text, "--fault-truncate")?;
    }
    if let Some(text) = flag(rest, "--fault-future-version") {
        faults.future_version_every = parse_u64(text, "--fault-future-version")?;
    }
    if let Some(text) = flag(rest, "--fault-unknown-kind") {
        faults.unknown_kind_every = parse_u64(text, "--fault-unknown-kind")?;
    }
    config = config.faults(faults);

    let log = config.generate_jsonl()?;
    if let Some(parent) = out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&out, &log)
        .map_err(|e| CliError(format!("cannot write {}: {e}", out.display())))?;
    let lines = log.lines().count();
    if faults.is_clean() {
        println!(
            "wrote {lines} events ({} vehicles, {} h) to {}",
            vehicles,
            hours.value(),
            out.display()
        );
    } else {
        println!(
            "wrote {lines} lines ({} vehicles, {} h, fault plan active) to {}",
            vehicles,
            hours.value(),
            out.display()
        );
    }
    if let Some(splitting) = splitting {
        let result = splitting_check(
            scenario_name,
            policy_name,
            Hours::new(hours.value() * vehicles as f64)?,
            seed.unwrap_or(0),
            workers,
            &splitting,
        )?;
        println!("tail-rate check: {result}");
        print_splitting_rates(&result)?;
    }
    Ok(CommandOutcome::Ok)
}

/// Runs a multilevel-splitting campaign over the same scenario, policy
/// and total fleet exposure as the generated telemetry, so the crude log
/// ships with a variance-reduced estimate of the tail rates the log is
/// far too short to measure directly.
fn splitting_check(
    scenario_name: &str,
    policy_name: &str,
    total: Hours,
    seed: u64,
    workers: Option<usize>,
    config: &SplittingConfig,
) -> Result<SplittingResult, CliError> {
    let world: WorldConfig = match scenario_name {
        "urban" => urban_scenario()?,
        "highway" => highway_scenario()?,
        "mixed" => mixed_scenario()?,
        "banded" => banded_scenario()?,
        _ => {
            return Err(CliError(format!(
                "unknown scenario {scenario_name:?}; expected urban|highway|mixed|banded"
            )))
        }
    };
    fn run<P: TacticalPolicy>(
        world: WorldConfig,
        policy: P,
        total: Hours,
        seed: u64,
        workers: Option<usize>,
        config: &SplittingConfig,
    ) -> Result<SplittingResult, CliError> {
        let mut campaign = Campaign::new(world, policy).hours(total).seed(seed);
        if let Some(workers) = workers {
            campaign = campaign.workers(workers);
        }
        Ok(campaign.run_splitting(&paper_classification()?, config)?)
    }
    match policy_name {
        "cautious" => run(
            world,
            CautiousPolicy::default(),
            total,
            seed,
            workers,
            config,
        ),
        "reactive" => run(
            world,
            ReactivePolicy::default(),
            total,
            seed,
            workers,
            config,
        ),
        _ => Err(CliError(format!(
            "unknown policy {policy_name:?}; expected cautious|reactive"
        ))),
    }
}

fn ingest(classification_path: &Path, rest: &[&str]) -> Result<CommandOutcome, CliError> {
    let classification: IncidentClassification = read_artefact(classification_path)?;
    let logs = log_paths(rest)?;
    let shards = shards_from(rest)?;
    let checkpoint = flag(rest, "--checkpoint").map(PathBuf::from);

    // Checkpointed incremental ingest: resume from the persisted state (if
    // any), fold each --log segment in argument order, and persist the
    // merged state after every segment so an interrupted run loses at most
    // the segment it was processing. Checkpoint writes are crash-safe
    // (write-to-temp + fsync + atomic rename) and a corrupt/truncated
    // checkpoint is a clear error, never a silent fresh start.
    let mut state = match &checkpoint {
        Some(path) => match qrn_fleet::checkpoint::load_state_if_exists(path)? {
            Some(resumed) => {
                println!(
                    "resuming from checkpoint {} ({} events over {:.1} h)",
                    path.display(),
                    resumed.events(),
                    resumed.exposure().value(),
                );
                resumed
            }
            None => FleetState::default(),
        },
        None => FleetState::default(),
    };
    for log_path in &logs {
        let text = read_log_file(log_path)?;
        let segment = ingest_str(&text, &classification, shards)?;
        state.merge(&segment);
        if let Some(path) = &checkpoint {
            qrn_fleet::checkpoint::save_state(path, &state)?;
            println!(
                "checkpointed {} after {} ({} events total)",
                path.display(),
                log_path.display(),
                state.events(),
            );
        }
    }
    print_state(&state);
    if let Some(out) = flag(rest, "--out") {
        let path = PathBuf::from(out);
        write_artefact(&path, &state)?;
        println!("wrote fleet state to {}", path.display());
    }
    // The evidence ledger alone, as the artefact `qrn evidence
    // inspect|merge|diff` consume — e.g. to run `--check-mece` over a
    // banded fleet log.
    if let Some(out) = flag(rest, "--evidence-out") {
        let path = PathBuf::from(out);
        write_artefact(&path, state.evidence())?;
        println!("wrote evidence ledger to {}", path.display());
    }
    Ok(CommandOutcome::Ok)
}

pub(crate) fn print_state(state: &FleetState) {
    println!(
        "{} lines -> {} events from {} vehicles over {:.1} h ({} lines skipped)",
        state.lines(),
        state.events(),
        state.vehicle_count(),
        state.exposure().value(),
        state.skipped().total(),
    );
    for (id, count) in state.counts() {
        println!("  {id}: {count} incidents");
    }
    println!("  (not incidents: {})", state.unclassified());
}

fn report(
    norm_path: &Path,
    classification_path: &Path,
    allocation_path: &Path,
    rest: &[&str],
) -> Result<CommandOutcome, CliError> {
    let norm: QuantitativeRiskNorm = read_artefact(norm_path)?;
    let classification: IncidentClassification = read_artefact(classification_path)?;
    let allocation: Allocation = read_artefact(allocation_path)?;
    let shards = shards_from(rest)?;

    let mut config = BurnDownConfig::default();
    if let Some(text) = flag(rest, "--confidence") {
        config.confidence = parse_f64(text, "--confidence")?;
    }
    if let Some(text) = flag(rest, "--alpha") {
        config.alpha = parse_f64(text, "--alpha")?;
    }
    if let Some(text) = flag(rest, "--beta") {
        config.beta = parse_f64(text, "--beta")?;
    }
    if let Some(text) = flag(rest, "--watch-ratio") {
        config.watch_ratio = parse_f64(text, "--watch-ratio")?;
    }
    if let Some(text) = flag(rest, "--sprt-fraction") {
        config.sprt_fraction = parse_f64(text, "--sprt-fraction")?;
    }
    // `--sequential` switches the verdict onto the anytime-valid
    // confidence sequence and budget e-process (schema version 4); the
    // SPRT and Garwood columns remain as descriptive legacy.
    config.sequential = has_flag(rest, "--sequential");
    // `--where dim=value` (repeatable) restricts the refinement rows to
    // contexts matching every clause; any filter implies per-context
    // rows. `--by-zone` is the pre-0.8 alias of `--by-context`.
    let filter = ContextFilter::parse(flag_values(rest, "--where"))?;
    config.by_zone =
        has_flag(rest, "--by-context") || has_flag(rest, "--by-zone") || !filter.is_empty();

    let mut state = FleetState::default();
    for log_path in &log_paths(rest)? {
        let text = read_log_file(log_path)?;
        state.merge(&ingest_str(&text, &classification, shards)?);
    }

    // Design-time campaign ledgers (`--evidence <ledger.json>`, possibly
    // weighted and zone-refined) merge with the operational fleet
    // evidence into one combined burn-down — the report the server's
    // `?as_of=` replay computes from the same snapshot.
    let mut snapshot = LedgerSnapshot::from(state);
    let evidence_paths = flag_values(rest, "--evidence");
    for path in &evidence_paths {
        let ledger: EvidenceLedger = read_artefact(Path::new(path))?;
        snapshot.evidence.merge(&ledger);
    }
    if !evidence_paths.is_empty() {
        println!(
            "merged {} campaign evidence ledger(s) with the fleet log",
            evidence_paths.len()
        );
    }
    // A one-shot report: its quantile memo lives for this report only.
    let mut report = snapshot.report(&norm, &allocation, &config, &filter, &QuantileMemo::new())?;
    // Look accounting aligned with `qrn serve`: with `--checkpoint`, this
    // report is one more look in a persistent sequence, kept in the
    // `<checkpoint>.looks.json` sidecar. Without it, a one-shot report
    // stays its own first look (`looks: 1`). See DESIGN §10.
    if let Some(ckpt) = flag(rest, "--checkpoint") {
        let sidecar = LookBook::sidecar_path(Path::new(ckpt));
        let mut book = LookBook::load_if_exists(&sidecar)?.unwrap_or_default();
        book.look(&mut report, unix_millis_now());
        book.save(&sidecar)?;
        println!("look accounting resumed from {}", sidecar.display());
    }
    print!("{report}");
    if let Some(out) = flag(rest, "--out") {
        let path = PathBuf::from(out);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        // Canonical bytes, not write_artefact: the determinism contract
        // ("same log, any shard count -> same file") is part of the CLI
        // surface and covered by tests.
        std::fs::write(&path, report.to_canonical_json())
            .map_err(|e| CliError(format!("cannot write {}: {e}", path.display())))?;
        println!("wrote fleet report to {}", path.display());
    }
    if report.any_burned() {
        Ok(CommandOutcome::CheckFailed(
            "at least one risk budget is burned".into(),
        ))
    } else {
        Ok(CommandOutcome::Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::run as run_cli;

    fn run_strs(args: &[&str]) -> Result<CommandOutcome, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run_cli(&owned)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qrn-fleet-cli-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn emit_artefacts(dir: &Path) {
        run_strs(&["example", "emit", "--dir", dir.to_str().unwrap()]).unwrap();
    }

    #[test]
    fn generate_ingest_report_round_trip() {
        let dir = temp_dir("roundtrip");
        emit_artefacts(&dir);
        let log = dir.join("events.jsonl");
        assert_eq!(
            run_strs(&[
                "fleet",
                "generate",
                "--scenario",
                "urban",
                "--policy",
                "cautious",
                "--hours",
                "40",
                "--vehicles",
                "4",
                "--seed",
                "3",
                "--out",
                log.to_str().unwrap(),
            ])
            .unwrap(),
            CommandOutcome::Ok
        );
        assert_eq!(
            run_strs(&[
                "fleet",
                "ingest",
                dir.join("classification.json").to_str().unwrap(),
                "--log",
                log.to_str().unwrap(),
                "--shards",
                "3",
            ])
            .unwrap(),
            CommandOutcome::Ok
        );
        let outcome = run_strs(&[
            "fleet",
            "report",
            dir.join("norm.json").to_str().unwrap(),
            dir.join("classification.json").to_str().unwrap(),
            dir.join("allocation.json").to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
        ])
        .unwrap();
        assert!(matches!(
            outcome,
            CommandOutcome::Ok | CommandOutcome::CheckFailed(_)
        ));
    }

    #[test]
    fn report_bytes_are_shard_count_independent() {
        let dir = temp_dir("shards");
        emit_artefacts(&dir);
        let log = dir.join("events.jsonl");
        run_strs(&[
            "fleet",
            "generate",
            "--scenario",
            "mixed",
            "--policy",
            "reactive",
            "--hours",
            "30",
            "--vehicles",
            "5",
            "--seed",
            "9",
            "--out",
            log.to_str().unwrap(),
        ])
        .unwrap();
        let mut reports = Vec::new();
        for shards in ["1", "8"] {
            let out = dir.join(format!("report-{shards}.json"));
            let _ = run_strs(&[
                "fleet",
                "report",
                dir.join("norm.json").to_str().unwrap(),
                dir.join("classification.json").to_str().unwrap(),
                dir.join("allocation.json").to_str().unwrap(),
                "--log",
                log.to_str().unwrap(),
                "--shards",
                shards,
                "--out",
                out.to_str().unwrap(),
            ])
            .unwrap();
            reports.push(std::fs::read(&out).unwrap());
        }
        assert_eq!(reports[0], reports[1]);
    }

    #[test]
    fn injected_collisions_burn_a_budget() {
        let dir = temp_dir("burned");
        emit_artefacts(&dir);
        let log = dir.join("events.jsonl");
        run_strs(&[
            "fleet",
            "generate",
            "--scenario",
            "urban",
            "--policy",
            "cautious",
            "--hours",
            "50",
            "--vehicles",
            "2",
            "--inject-collisions",
            "25",
            "--out",
            log.to_str().unwrap(),
        ])
        .unwrap();
        let outcome = run_strs(&[
            "fleet",
            "report",
            dir.join("norm.json").to_str().unwrap(),
            dir.join("classification.json").to_str().unwrap(),
            dir.join("allocation.json").to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
        ])
        .unwrap();
        assert!(matches!(outcome, CommandOutcome::CheckFailed(_)));
    }

    #[test]
    fn generate_with_splitting_check_still_writes_log() {
        let dir = temp_dir("splitcheck");
        let log = dir.join("events.jsonl");
        assert_eq!(
            run_strs(&[
                "fleet",
                "generate",
                "--scenario",
                "urban",
                "--policy",
                "reactive",
                "--hours",
                "10",
                "--vehicles",
                "2",
                "--seed",
                "4",
                "--splitting-levels",
                "3",
                "--splitting-effort",
                "4",
                "--out",
                log.to_str().unwrap(),
            ])
            .unwrap(),
            CommandOutcome::Ok
        );
        assert!(std::fs::read_to_string(&log).unwrap().lines().count() > 0);
    }

    #[test]
    fn checkpointed_segment_ingest_equals_one_shot() {
        let dir = temp_dir("checkpoint");
        emit_artefacts(&dir);
        let classification = dir.join("classification.json");
        // Two telemetry segments (different seeds = disjoint streams).
        for (seed, name) in [("3", "seg-a.jsonl"), ("4", "seg-b.jsonl")] {
            run_strs(&[
                "fleet",
                "generate",
                "--scenario",
                "urban",
                "--policy",
                "cautious",
                "--hours",
                "32",
                "--vehicles",
                "4",
                "--seed",
                seed,
                "--out",
                dir.join(name).to_str().unwrap(),
            ])
            .unwrap();
        }
        let ckpt = dir.join("state.ckpt.json");
        let _ = std::fs::remove_file(&ckpt);
        // Segment-wise: two invocations resuming from the checkpoint.
        for name in ["seg-a.jsonl", "seg-b.jsonl"] {
            run_strs(&[
                "fleet",
                "ingest",
                classification.to_str().unwrap(),
                "--log",
                dir.join(name).to_str().unwrap(),
                "--checkpoint",
                ckpt.to_str().unwrap(),
                "--shards",
                "2",
            ])
            .unwrap();
        }
        // One-shot: both segments in one invocation.
        let oneshot = dir.join("state.oneshot.json");
        run_strs(&[
            "fleet",
            "ingest",
            classification.to_str().unwrap(),
            "--log",
            dir.join("seg-a.jsonl").to_str().unwrap(),
            "--log",
            dir.join("seg-b.jsonl").to_str().unwrap(),
            "--shards",
            "5",
            "--out",
            oneshot.to_str().unwrap(),
        ])
        .unwrap();
        // Exposure chunks are dyadic-friendly (8 h and 10 h chunks), so
        // the float folds agree exactly and the artefacts are
        // byte-identical.
        assert_eq!(
            std::fs::read(&ckpt).unwrap(),
            std::fs::read(&oneshot).unwrap()
        );
    }

    #[test]
    fn report_merges_campaign_evidence_with_fleet_log() {
        let dir = temp_dir("combined");
        emit_artefacts(&dir);
        let log = dir.join("events.jsonl");
        run_strs(&[
            "fleet",
            "generate",
            "--scenario",
            "urban",
            "--policy",
            "reactive",
            "--hours",
            "40",
            "--vehicles",
            "4",
            "--seed",
            "8",
            "--out",
            log.to_str().unwrap(),
        ])
        .unwrap();
        // A weighted design-time campaign ledger from a splitting run.
        let ledger = dir.join("campaign-evidence.json");
        run_strs(&[
            "simulate",
            "--scenario",
            "urban",
            "--policy",
            "reactive",
            "--hours",
            "25",
            "--seed",
            "12",
            "--splitting-levels",
            "4",
            "--splitting-effort",
            "4",
            "--out",
            dir.join("splitting.json").to_str().unwrap(),
            "--evidence-out",
            ledger.to_str().unwrap(),
        ])
        .unwrap();
        let out = dir.join("combined-report.json");
        let outcome = run_strs(&[
            "fleet",
            "report",
            dir.join("norm.json").to_str().unwrap(),
            dir.join("classification.json").to_str().unwrap(),
            dir.join("allocation.json").to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--evidence",
            ledger.to_str().unwrap(),
            "--by-zone",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        assert!(matches!(
            outcome,
            CommandOutcome::Ok | CommandOutcome::CheckFailed(_)
        ));
        let report: qrn_fleet::burndown::FleetReport =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        // Combined exposure: 40 h of fleet log + 25 h of campaign.
        assert!((report.exposure_hours - 65.0).abs() < 1e-6);
        assert!(report.config.by_zone);
        // The splitting campaign's zone refinement rows survive into the
        // combined burn-down.
        assert!(!report.zones.is_empty());
        let zone_exposure: f64 = report.zones.iter().map(|z| z.exposure_hours).sum();
        assert!((zone_exposure - 25.0).abs() < 1e-6);
        // Weighted splitting mass makes at least one goal row weighted.
        let ledger: EvidenceLedger =
            serde_json::from_str(&std::fs::read_to_string(&ledger).unwrap()).unwrap();
        let weighted_kinds: Vec<&str> = ledger
            .kinds()
            .into_iter()
            .filter(|k| !ledger.count(k).is_unweighted() && ledger.count(k).observations() > 0)
            .collect();
        for kind in weighted_kinds {
            if let Some(goal) = report.goals.iter().find(|g| g.incident == kind.into()) {
                assert!(goal.weighted.is_some(), "{kind}");
            }
        }
    }

    #[test]
    fn banded_generate_reports_by_context_and_filters() {
        let dir = temp_dir("banded");
        emit_artefacts(&dir);
        let log = dir.join("banded.jsonl");
        run_strs(&[
            "fleet",
            "generate",
            "--scenario",
            "banded",
            "--policy",
            "cautious",
            "--hours",
            "48",
            "--vehicles",
            "3",
            "--seed",
            "11",
            "--out",
            log.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&log).unwrap();
        assert!(text.contains("\"ctx\":\""), "{text}");

        let full = dir.join("by-context.json");
        let _ = run_strs(&[
            "fleet",
            "report",
            dir.join("norm.json").to_str().unwrap(),
            dir.join("classification.json").to_str().unwrap(),
            dir.join("allocation.json").to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--by-context",
            "--out",
            full.to_str().unwrap(),
        ])
        .unwrap();
        let report: qrn_fleet::burndown::FleetReport =
            serde_json::from_str(&std::fs::read_to_string(&full).unwrap()).unwrap();
        assert!(report.zones.len() >= 3, "{:?}", report.zones.len());
        // Band quotas are quantised to 0.25 h so the per-context rows
        // partition the fleet exposure bit-exactly (MECE).
        let banded: f64 = report.zones.iter().map(|z| z.exposure_hours).sum();
        assert_eq!(banded, report.exposure_hours);

        // `--where` keeps only matching rows; `--by-zone` still works as
        // the alias for the unfiltered per-context report.
        let filtered = dir.join("fog-only.json");
        let _ = run_strs(&[
            "fleet",
            "report",
            dir.join("norm.json").to_str().unwrap(),
            dir.join("classification.json").to_str().unwrap(),
            dir.join("allocation.json").to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--where",
            "weather=fog",
            "--out",
            filtered.to_str().unwrap(),
        ])
        .unwrap();
        let fog: qrn_fleet::burndown::FleetReport =
            serde_json::from_str(&std::fs::read_to_string(&filtered).unwrap()).unwrap();
        assert!(!fog.zones.is_empty());
        assert!(
            fog.zones.iter().all(|z| z.zone.contains("weather=fog")),
            "{:?}",
            fog.zones
        );
        assert_eq!(fog.exposure_hours, report.exposure_hours);

        let aliased = dir.join("by-zone.json");
        let _ = run_strs(&[
            "fleet",
            "report",
            dir.join("norm.json").to_str().unwrap(),
            dir.join("classification.json").to_str().unwrap(),
            dir.join("allocation.json").to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--by-zone",
            "--out",
            aliased.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(
            std::fs::read(&full).unwrap(),
            std::fs::read(&aliased).unwrap()
        );

        // A malformed where clause is a CLI error, not a silent no-op.
        assert!(run_strs(&[
            "fleet",
            "report",
            dir.join("norm.json").to_str().unwrap(),
            dir.join("classification.json").to_str().unwrap(),
            dir.join("allocation.json").to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--where",
            "weather",
        ])
        .is_err());
    }

    #[test]
    fn sequential_report_adds_columns_and_legacy_bytes_are_unchanged() {
        let dir = temp_dir("sequential");
        emit_artefacts(&dir);
        let log = dir.join("events.jsonl");
        run_strs(&[
            "fleet",
            "generate",
            "--scenario",
            "urban",
            "--policy",
            "cautious",
            "--hours",
            "40",
            "--vehicles",
            "3",
            "--seed",
            "11",
            "--out",
            log.to_str().unwrap(),
        ])
        .unwrap();
        let legacy = dir.join("legacy.json");
        let sequential = dir.join("sequential.json");
        let norm = dir.join("norm.json");
        let classification = dir.join("classification.json");
        let allocation = dir.join("allocation.json");
        for (out, flags) in [(&legacy, &[][..]), (&sequential, &["--sequential"][..])] {
            let mut args = vec![
                "fleet",
                "report",
                norm.to_str().unwrap(),
                classification.to_str().unwrap(),
                allocation.to_str().unwrap(),
                "--log",
                log.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ];
            args.extend_from_slice(flags);
            let _ = run_strs(&args).unwrap();
        }
        let legacy_text = std::fs::read_to_string(&legacy).unwrap();
        let sequential_text = std::fs::read_to_string(&sequential).unwrap();
        assert!(!legacy_text.contains("seq_upper"), "{legacy_text}");
        assert!(!legacy_text.contains("\"sequential\""), "{legacy_text}");
        assert!(legacy_text.contains("\"schema_version\": 3"));
        assert!(sequential_text.contains("\"seq_lower\""));
        assert!(sequential_text.contains("\"seq_upper\""));
        assert!(sequential_text.contains("\"e_value\""));
        assert!(sequential_text.contains("\"schema_version\": 4"));
    }

    #[test]
    fn report_checkpoint_resumes_look_accounting_across_runs() {
        let dir = temp_dir("report-looks");
        emit_artefacts(&dir);
        let log = dir.join("events.jsonl");
        run_strs(&[
            "fleet",
            "generate",
            "--scenario",
            "urban",
            "--policy",
            "cautious",
            "--hours",
            "30",
            "--vehicles",
            "2",
            "--seed",
            "6",
            "--out",
            log.to_str().unwrap(),
        ])
        .unwrap();
        let checkpoint = dir.join("fleet-state.json");
        let sidecar = LookBook::sidecar_path(&checkpoint);
        let _ = std::fs::remove_file(&sidecar);
        let report_args = |out: &Path| {
            vec![
                "fleet".to_string(),
                "report".to_string(),
                dir.join("norm.json").to_str().unwrap().to_string(),
                dir.join("classification.json")
                    .to_str()
                    .unwrap()
                    .to_string(),
                dir.join("allocation.json").to_str().unwrap().to_string(),
                "--log".to_string(),
                log.to_str().unwrap().to_string(),
                "--checkpoint".to_string(),
                checkpoint.to_str().unwrap().to_string(),
                "--out".to_string(),
                out.to_str().unwrap().to_string(),
            ]
        };
        let first = dir.join("first.json");
        let second = dir.join("second.json");
        let _ = run_cli(&report_args(&first)).unwrap();
        let book = LookBook::load_if_exists(&sidecar).unwrap().unwrap();
        assert!(!book.is_empty());
        assert!(book.iter().all(|(_, entry)| entry.looks == 1));
        let _ = run_cli(&report_args(&second)).unwrap();
        let book = LookBook::load_if_exists(&sidecar).unwrap().unwrap();
        assert!(book.iter().all(|(_, entry)| entry.looks == 2));
        assert!(std::fs::read_to_string(&second)
            .unwrap()
            .contains("\"looks\": 2"));
    }

    #[test]
    fn generated_fault_plan_exercises_skip_counting() {
        let dir = temp_dir("faults");
        emit_artefacts(&dir);
        let log = dir.join("dirty.jsonl");
        run_strs(&[
            "fleet",
            "generate",
            "--scenario",
            "urban",
            "--policy",
            "cautious",
            "--hours",
            "30",
            "--vehicles",
            "3",
            "--seed",
            "2",
            "--fault-truncate",
            "5",
            "--fault-future-version",
            "7",
            "--out",
            log.to_str().unwrap(),
        ])
        .unwrap();
        let state_path = dir.join("dirty-state.json");
        run_strs(&[
            "fleet",
            "ingest",
            dir.join("classification.json").to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
            "--out",
            state_path.to_str().unwrap(),
        ])
        .unwrap();
        let state: FleetState =
            serde_json::from_str(&std::fs::read_to_string(&state_path).unwrap()).unwrap();
        assert!(state.skipped().bad_json > 0);
        assert!(state.skipped().unsupported_version > 0);
        assert!(state.events() > 0);
    }

    #[test]
    fn fleet_validates_arguments() {
        assert!(run_strs(&["fleet"]).is_err());
        assert!(run_strs(&["fleet", "teleport"]).is_err());
        assert!(run_strs(&["fleet", "generate", "--scenario", "moon"]).is_err());
        assert!(run_strs(&[
            "fleet",
            "generate",
            "--scenario",
            "urban",
            "--policy",
            "cautious",
            "--hours",
            "10",
            "--vehicles",
            "2",
            "--splitting-levels",
            "0",
            "--out",
            "/tmp/x.jsonl",
        ])
        .is_err());
        assert!(run_strs(&[
            "fleet",
            "generate",
            "--scenario",
            "urban",
            "--policy",
            "cautious",
            "--hours",
            "ten",
            "--vehicles",
            "2",
            "--out",
            "/tmp/x.jsonl",
        ])
        .is_err());
        assert!(run_strs(&[
            "fleet",
            "ingest",
            "/nonexistent.json",
            "--log",
            "/nonexistent.jsonl"
        ])
        .is_err());
    }
}
