//! Library backing the `qrn` command-line tool.
//!
//! Every subcommand is implemented as a function from parsed arguments to
//! a [`CommandOutcome`], so the whole surface is unit-testable without
//! spawning processes; `main.rs` only parses `std::env::args` and maps the
//! outcome to an exit code.
//!
//! Artefacts are exchanged as JSON (the same serde representations the
//! library crates define), so a safety organisation can keep norms,
//! classifications, allocations and fleet records in version control and
//! drive the checks from CI:
//!
//! ```text
//! qrn example emit --dir case/         # write the paper-example artefacts
//! qrn eq1 case/norm.json case/allocation.json
//! qrn goals case/classification.json case/allocation.json
//! qrn simulate --scenario urban --policy cautious --hours 200 --seed 7 \
//!     --out case/records.json
//! qrn verify case/norm.json case/classification.json case/allocation.json \
//!     case/records.json --confidence 0.95
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub mod evidence;
pub mod fleet;
pub mod io;
pub mod serve;
pub mod store;

use std::fmt;

/// What a subcommand concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandOutcome {
    /// Everything checked out; exit 0.
    Ok,
    /// A check ran to completion and found the artefacts non-compliant
    /// (Eq. (1) violated, verification violated, MECE broken); exit 1.
    CheckFailed(String),
}

/// Error for bad invocations or unreadable artefacts; exit 2.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError(format!("invalid JSON artefact: {e}"))
    }
}

impl From<qrn_core::CoreError> for CliError {
    fn from(e: qrn_core::CoreError) -> Self {
        CliError(e.to_string())
    }
}

impl From<qrn_units::UnitError> for CliError {
    fn from(e: qrn_units::UnitError) -> Self {
        CliError(e.to_string())
    }
}

impl From<qrn_fleet::FleetError> for CliError {
    fn from(e: qrn_fleet::FleetError) -> Self {
        CliError(e.to_string())
    }
}

impl From<qrn_stats::StatsError> for CliError {
    fn from(e: qrn_stats::StatsError) -> Self {
        CliError(e.to_string())
    }
}

impl From<qrn_serve::ServeError> for CliError {
    fn from(e: qrn_serve::ServeError) -> Self {
        CliError(e.to_string())
    }
}

impl From<qrn_store::StoreError> for CliError {
    fn from(e: qrn_store::StoreError) -> Self {
        CliError(e.to_string())
    }
}

/// Usage text printed on `--help` or argument errors.
pub const USAGE: &str = "\
qrn — The Quantitative Risk Norm toolkit

USAGE:
    qrn <COMMAND> [ARGS]

COMMANDS:
    example emit --dir <DIR>
        Write the paper-example artefacts (norm, classification,
        allocation) as JSON files into <DIR>.

    norm check <norm.json>
        Validate a risk norm and print it.

    classify <classification.json> (--collision <OBJ> <KMH> | --near-miss <OBJ> <M> <KMH>)
        Classify one incident. OBJ is one of vru|car|truck|animal|static|other.

    mece <classification.json>
        Probe a classification for the MECE property.

    eq1 <norm.json> <allocation.json>
        Check the fulfilment inequality (Eq. 1). Exits 1 on violation.

    goals <classification.json> <allocation.json>
        Derive the safety goals and the completeness certificate.

    simulate --scenario <urban|highway|mixed> --policy <cautious|reactive>
             --hours <H> [--seed <N>] [--workers <N>]
             [--splitting-levels <N> [--splitting-effort <E>]]
             --out <records.json> [--evidence-out <ledger.json>]
        Run a Monte-Carlo fleet campaign and write the incident records.
        Workers default to all CPUs; the count never changes the outcome.
        With --splitting-levels the campaign runs the multilevel-splitting
        rare-event engine over a geometric severity ladder and writes the
        weighted splitting result instead of raw records. --evidence-out
        additionally writes the campaign's evidence ledger (weighted
        incident mass + exposure per context), mergeable downstream by
        `verify --evidence` and `fleet report --evidence`.

    verify <norm.json> <classification.json> <allocation.json> <records.json>
           [--confidence <0..1>] [--evidence <ledger.json>]...
        Verify measured records against goals and norm. Exits 1 on violation.
        Each --evidence merges a campaign evidence ledger into the measured
        records before verification, so weighted splitting mass and plain
        counts are pooled into one Eq. (1) check.

    safety-case <item-name> <norm.json> <classification.json> <allocation.json>
                <records.json> [--confidence <0..1>]
        Assemble and print the argument tree. Exits 1 when undermined.

    report <item-name> <norm.json> <classification.json> <allocation.json>
           [--records <records.json>] [--confidence <0..1>] [--out <report.md>]
        Render the full safety documentation as markdown.

    fleet generate --scenario <urban|highway|mixed|banded> --policy <cautious|reactive>
                   --hours <H> --vehicles <N> [--seed <K>] [--workers <W>]
                   [--stamp-seq] [--inject-collisions <N>]
                   [--splitting-levels <N>] [--splitting-effort <E>]
                   [--fault-truncate <S>] [--fault-future-version <S>]
                   [--fault-unknown-kind <S>] [--fault-drop-stride <S>]
                   --out <events.jsonl>
        Generate a synthetic fleet telemetry log (JSONL) from a simulated
        campaign. The 'banded' scenario spans zone x weather x lighting x
        time-of-day ODD bands and stamps each line with its canonical
        context key ('ctx', schema v2); the other scenarios emit v1 lines
        byte-identical to earlier releases. --stamp-seq numbers each
        vehicle's lines with a monotone 'seq' field so the evidence store
        can reject duplicates and detect holes. --inject-collisions adds
        deliberate severe VRU collisions for rehearsing the alerting
        path. --splitting-levels additionally runs a multilevel-splitting
        tail-rate check over the same fleet exposure and prints the
        weighted rare-incident rates. The --fault-* flags corrupt every
        S-th line (truncated JSON, future schema version, unknown event
        kind); --fault-drop-stride silently drops every S-th line instead
        — undetectable without --stamp-seq, detected as sequence gaps
        with it.

    fleet ingest <classification.json> --log <events.jsonl>...
                 [--shards <N>] [--checkpoint <state.json>] [--out <state.json>]
                 [--evidence-out <ledger.json>]
        Ingest telemetry logs with the sharded streaming engine and print
        the fleet state. The shard count never changes the result. Repeat
        --log for multiple segments; --checkpoint resumes from (and
        persists after every segment) a merged fleet-state artefact, so
        segment-wise ingest across invocations equals one-shot ingest.
        --evidence-out writes the state's evidence ledger alone, the
        artefact `evidence inspect|merge|diff` consume.

    fleet report <norm.json> <classification.json> <allocation.json>
                 --log <events.jsonl>... [--evidence <ledger.json>]...
                 [--by-context] [--where <dim>=<value>]... [--by-zone]
                 [--shards <N>] [--confidence <0..1>]
                 [--alpha <0..1>] [--beta <0..1>] [--sprt-fraction <0..1>]
                 [--watch-ratio <R>] [--out <report.json>]
        Compute the budget burn-down (SPRT + exact Poisson bounds) of the
        logged evidence against the norm. Exits 1 when a budget is burned.
        Each --evidence merges a design-time campaign evidence ledger
        (e.g. from `simulate --evidence-out`) into the operational fleet
        evidence for one combined burn-down; weighted splitting mass uses
        effective-count statistics. --by-context adds per-context
        refinement rows for the named ODD-band contexts present in the
        evidence (--by-zone is the deprecated pre-0.8 spelling, kept as
        an alias); each --where keeps only the rows whose canonical key
        carries that dim=value pair, and implies --by-context.

    evidence inspect <ledger.json> [--check-mece]
        Print an evidence ledger: exposure, per-kind incident mass and
        observations, globally and per zone, and whether the evidence is
        importance-weighted. --check-mece additionally asserts the named
        context rows partition the total exposure bit-exactly (exits 1
        on unattributed or double-attributed hours).

    evidence merge <ledger.json> <ledger.json>... --out <merged.json>
        Pool two or more evidence ledgers into one (bit-exact commutative
        merge), e.g. campaign evidence from several seeds.

    evidence diff <a.json> <b.json>
        Print per-context deltas (b - a) of exposure and incident mass.
        Exits 0 when identical, 1 when the ledgers differ.

    store inspect <classification.json> --dir <DIR> [--shards <N>]
        Print an evidence store's segment shape and snapshot timeline.
        <DIR> is one item's store directory (<--store>/<item> of a
        `qrn serve --store` deployment).

    store replay <classification.json> --dir <DIR> [--as-of <MILLIS>]
                 [--shards <N>] [--out <state.json>]
                 [--dump-log <events.jsonl>]
        Fold the store's records — optionally only up to --as-of — into a
        fleet state, print it with the screening tallies (duplicates
        rejected, gaps, missing sequence numbers) and optionally write
        the state and/or the accepted telemetry lines. The written state
        is byte-identical to `fleet ingest` of the accepted lines.

    store compact <classification.json> --dir <DIR>
        Seal the open segment and rewrite all closed segments into one
        snapshot segment. Compaction never changes a queryable byte
        (property-tested); run it only against a stopped server — it
        takes the writer role.

    store verify <classification.json> --dir <DIR> [--shards <N>]
        Re-fold every record and check each stored snapshot against an
        independent replay. Exits 1 when any snapshot disagrees.

    serve <norm.json> <classification.json> <allocation.json>
          [--item <name>=<norm.json>,<classification.json>,<allocation.json>]...
          [--bind <addr>] [--port <P>] [--workers <N>] [--queue-depth <N>]
          [--max-body-bytes <B>] [--io-timeout-secs <S>] [--shards <N>]
          [--state-shards <N>] [--checkpoint <state.json>] [--store <DIR>]
          [--store-snapshot-every <EVENTS>] [--store-roll-bytes <B>]
          [--store-compact-after <SEGMENTS>]
          [--store-group-commit <BATCHES>]
          [--evidence <ledger.json>]... [--by-context|--by-zone]
          [--confidence <0..1>] [--alpha <0..1>] [--beta <0..1>]
          [--sprt-fraction <0..1>] [--watch-ratio <R>]
        Run the live evidence server (default 127.0.0.1:7878): POST
        /v1/ingest takes JSONL telemetry segments, GET /v1/burndown
        returns the current burn-down report (add ?context=<key> for one
        context's refinement rows — ?zone= is the deprecated alias — and
        ?where=<dim>=<value>[,<dim>=<value>...] to keep only matching
        rows; unknown query parameters are a 400 naming the offending
        key), GET /metrics exposes Prometheus text
        metrics (item-labelled), GET /healthz is liveness and POST
        /v1/shutdown drains in-flight requests and writes a final
        checkpoint per item. The positional artefacts are the item named
        'default'; each --item adds another served item, addressed as
        /v1/<name>/ingest and /v1/<name>/burndown with its own state and
        checkpoint file. Each item's live state is spread over
        --state-shards shards (default: CPU count) so concurrent ingests
        don't serialise; queries read a ledger-only snapshot of the
        shards. With --checkpoint the SPRT look counts
        (<state.json>.looks.json) are saved whenever a look is spent and
        at drain; without --store the state, byte-identical to `fleet
        ingest` offline, is written to <state.json> at drain only (a
        graceful-restart file: a crash loses the uploads since start).
        Both are resumed at start. --store is the one crash-durable
        mode: every accepted segment is first appended — durably,
        screened for duplicate and missing sequence numbers — to a
        per-item append-only log under <DIR>; the live state is recovered from
        the store on restart, --checkpoint then keeps only the look
        counts, and GET /v1/[<item>/]burndown?as_of=<millis>
        (a historical replay that spends no SPRT look) and GET
        /v1/[<item>/]history come alive. Concurrent ingests are
        group-committed: up to --store-group-commit queued batches
        (default 64) share one fsync, with no request acknowledged
        before the fsync covering its batch. --bind accepts a
        non-loopback
        address but warns loudly: the server is plaintext HTTP without
        authentication. A full request queue answers 429. An unknown
        flag is an error naming it.

EXIT CODES:
    0 success / compliant    1 check failed    2 usage or artefact error
";
