//! The `qrn serve` subcommand: the live evidence server.
//!
//! ```text
//! qrn serve case/norm.json case/classification.json case/allocation.json \
//!     --port 7878 --state-shards 4 --checkpoint case/live-state.json \
//!     --item vru=vru-norm.json,vru-classification.json,vru-allocation.json
//! curl -X POST --data-binary @segment.jsonl http://127.0.0.1:7878/v1/ingest
//! curl http://127.0.0.1:7878/v1/burndown
//! curl http://127.0.0.1:7878/v1/vru/burndown
//! curl http://127.0.0.1:7878/metrics
//! curl -X POST http://127.0.0.1:7878/v1/shutdown
//! ```
//!
//! The positional artefacts define the item named `default`, reachable
//! through the bare `/v1/ingest` and `/v1/burndown` routes; each
//! `--item <name>=<norm>,<classification>,<allocation>` adds another
//! independently served item. The process blocks until
//! `POST /v1/shutdown`, then drains in-flight requests and writes a
//! final checkpoint per item; only `--store` makes uploads crash-durable.

use std::path::{Path, PathBuf};
use std::time::Duration;

use qrn_core::allocation::Allocation;
use qrn_core::norm::QuantitativeRiskNorm;
use qrn_core::IncidentClassification;
use qrn_serve::{ServeConfig, Server};
use qrn_stats::evidence::EvidenceLedger;

use crate::commands::{flag, flag_values, has_flag, parse_f64};
use crate::io::read_artefact;
use crate::{CliError, CommandOutcome};

fn parse_num<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, CliError> {
    text.parse()
        .map_err(|_| CliError(format!("{what} must be a number, got {text:?}")))
}

/// Every `qrn serve` flag, and whether it takes a value. Anything else on
/// the command line is an error naming it, so a typo such as `--stor`
/// cannot start a server without the durability it asked for.
const FLAGS: [(&str, bool); 24] = [
    ("--item", true),
    ("--bind", true),
    ("--port", true),
    ("--workers", true),
    ("--queue-depth", true),
    ("--max-body-bytes", true),
    ("--io-timeout-secs", true),
    ("--shards", true),
    ("--state-shards", true),
    ("--checkpoint", true),
    ("--store", true),
    ("--store-snapshot-every", true),
    ("--store-roll-bytes", true),
    ("--store-compact-after", true),
    ("--store-group-commit", true),
    ("--evidence", true),
    ("--confidence", true),
    ("--alpha", true),
    ("--beta", true),
    ("--sprt-fraction", true),
    ("--watch-ratio", true),
    ("--by-context", false),
    ("--by-zone", false),
    ("--sequential", false),
];

/// Checks `rest` against [`FLAGS`]: every argument is a known flag, and
/// every valued flag has its value.
fn check_flags(rest: &[&str]) -> Result<(), CliError> {
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match FLAGS.iter().find(|(name, _)| name == arg) {
            Some((_, true)) if args.next().is_none() => {
                return Err(CliError(format!("serve flag {arg} needs a value")))
            }
            Some(_) => {}
            None => return Err(CliError(format!("unknown serve flag {arg:?}"))),
        }
    }
    Ok(())
}

/// Runs `serve <norm> <classification> <allocation> [flags]`.
///
/// # Errors
///
/// Returns [`CliError`] for unknown or malformed flags, unreadable
/// artefacts, an unbindable port or a corrupt checkpoint.
pub fn run(
    norm_path: &Path,
    classification_path: &Path,
    allocation_path: &Path,
    rest: &[&str],
) -> Result<CommandOutcome, CliError> {
    check_flags(rest)?;
    let norm: QuantitativeRiskNorm = read_artefact(norm_path)?;
    let classification: IncidentClassification = read_artefact(classification_path)?;
    let allocation: Allocation = read_artefact(allocation_path)?;

    let mut config = ServeConfig::new(norm, classification, allocation);
    for spec in flag_values(rest, "--item") {
        let (name, artefacts) = spec.split_once('=').ok_or_else(|| {
            CliError(format!(
                "--item must be <name>=<norm.json>,<classification.json>,<allocation.json>, \
                 got {spec:?}"
            ))
        })?;
        let paths: Vec<&str> = artefacts.split(',').collect();
        let [norm_path, classification_path, allocation_path] = paths.as_slice() else {
            return Err(CliError(format!(
                "--item {name} needs exactly three comma-separated artefacts \
                 (norm, classification, allocation), got {}",
                paths.len()
            )));
        };
        let norm: QuantitativeRiskNorm = read_artefact(Path::new(norm_path))?;
        let classification: IncidentClassification = read_artefact(Path::new(classification_path))?;
        let allocation: Allocation = read_artefact(Path::new(allocation_path))?;
        config.add_item(name, norm, classification, allocation);
    }
    if let Some(text) = flag(rest, "--bind") {
        config.bind = text.to_string();
    }
    if let Some(text) = flag(rest, "--port") {
        config.port = parse_num(text, "--port")?;
    }
    if let Some(text) = flag(rest, "--workers") {
        config.workers = parse_num(text, "--workers")?;
    }
    if let Some(text) = flag(rest, "--queue-depth") {
        config.queue_depth = parse_num(text, "--queue-depth")?;
    }
    if let Some(text) = flag(rest, "--max-body-bytes") {
        config.max_body_bytes = parse_num(text, "--max-body-bytes")?;
    }
    if let Some(text) = flag(rest, "--io-timeout-secs") {
        config.io_timeout = Duration::from_secs(parse_num(text, "--io-timeout-secs")?);
    }
    if let Some(text) = flag(rest, "--shards") {
        config.shards = parse_num(text, "--shards")?;
    }
    if let Some(text) = flag(rest, "--state-shards") {
        config.state_shards = parse_num(text, "--state-shards")?;
    }
    if let Some(text) = flag(rest, "--checkpoint") {
        config.checkpoint = Some(PathBuf::from(text));
    }
    if let Some(text) = flag(rest, "--store") {
        config.store = Some(PathBuf::from(text));
    }
    if let Some(text) = flag(rest, "--store-snapshot-every") {
        config.store_snapshot_every = parse_num(text, "--store-snapshot-every")?;
    }
    if let Some(text) = flag(rest, "--store-roll-bytes") {
        config.store_roll_bytes = parse_num(text, "--store-roll-bytes")?;
    }
    if let Some(text) = flag(rest, "--store-compact-after") {
        config.store_compact_after = parse_num(text, "--store-compact-after")?;
    }
    if let Some(text) = flag(rest, "--store-group-commit") {
        config.store_group_commit = parse_num(text, "--store-group-commit")?;
    }
    for path in flag_values(rest, "--evidence") {
        let ledger: EvidenceLedger = read_artefact(Path::new(path))?;
        config.push_evidence(ledger);
    }
    if let Some(text) = flag(rest, "--confidence") {
        config.burndown.confidence = parse_f64(text, "--confidence")?;
    }
    if let Some(text) = flag(rest, "--alpha") {
        config.burndown.alpha = parse_f64(text, "--alpha")?;
    }
    if let Some(text) = flag(rest, "--beta") {
        config.burndown.beta = parse_f64(text, "--beta")?;
    }
    if let Some(text) = flag(rest, "--sprt-fraction") {
        config.burndown.sprt_fraction = parse_f64(text, "--sprt-fraction")?;
    }
    if let Some(text) = flag(rest, "--watch-ratio") {
        config.burndown.watch_ratio = parse_f64(text, "--watch-ratio")?;
    }
    config.burndown.by_zone = has_flag(rest, "--by-context") || has_flag(rest, "--by-zone");
    // `--sequential` switches every item's verdict onto the anytime-valid
    // confidence sequence + budget e-process and enables the
    // `qrn_goal_e_value` / `qrn_goal_seq_upper` metric families.
    config.burndown.sequential = has_flag(rest, "--sequential");

    let checkpoint = config.checkpoint.clone();
    let store = config.store.clone();
    let item_names: Vec<String> = config.items.iter().map(|item| item.name.clone()).collect();
    let state_shards = config.state_shards;
    let handle = Server::start(config)?;
    println!(
        "serving on http://{} — POST /v1/[<item>/]ingest, \
         GET /v1/[<item>/]burndown[?context=..][&where=..], \
         GET /metrics, GET /healthz, POST /v1/shutdown",
        handle.addr()
    );
    println!(
        "items: {} ({} state shard{} each)",
        item_names.join(", "),
        state_shards,
        if state_shards == 1 { "" } else { "s" }
    );
    if let Some(path) = &checkpoint {
        println!(
            "checkpointing to {} (looks when spent, a store-less state at drain; \
             non-default items get per-item files)",
            path.display()
        );
    }
    if let Some(path) = &store {
        println!(
            "evidence store at {} (per-item append-only logs; GET \
             /v1/[<item>/]burndown?as_of=<millis> and /v1/[<item>/]history enabled)",
            path.display()
        );
    }
    handle.wait()?;
    match checkpoint {
        Some(_) => println!("drained; final checkpoint written"),
        None => println!("drained; no checkpoint configured"),
    }
    Ok(CommandOutcome::Ok)
}
