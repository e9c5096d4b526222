//! Criterion bench backing EQ1/CLM2: simulator throughput (simulated hours
//! per wall-clock second), worker scaling of the work-stealing engine, the
//! streaming (counting) accumulator, and single-encounter cost.
//!
//! After the criterion groups run, the harness writes the machine-local
//! perf baseline `results/BENCH_sim.json`: crude sim-hours/second per
//! worker count plus the splitting engine's variance-reduction factor and
//! the resulting *effective* sim-hours/second (crude throughput × matched-
//! compute variance reduction — how fast splitting accumulates
//! crude-equivalent evidence). Every throughput carries its repeat count
//! and quartiles. Wall clock is the point here, unlike the
//! `results/exp_*.json` artefacts, which stay machine-independent.
//!
//! `QRN_BENCH_CAMPAIGN_HOURS` overrides the scaling campaign's exposure
//! (default 200 h; the acceptance measurement uses 10 000 h or more).

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

use qrn_bench::report::{insert_quartiles, save_json};
use qrn_core::examples::paper_classification;
use qrn_sim::encounter::{run_encounter, Challenge};
use qrn_sim::faults::ActiveFaults;
use qrn_sim::monte_carlo::Campaign;
use qrn_sim::perception::PerceptionParams;
use qrn_sim::policy::CautiousPolicy;
use qrn_sim::scenario::urban_scenario;
use qrn_sim::vehicle::VehicleParams;
use qrn_sim::SplittingConfig;
use qrn_stats::rng::seeded;
use qrn_units::{Hours, Meters, Speed};

fn quick() -> bool {
    std::env::var("QRN_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn campaign_hours() -> f64 {
    std::env::var("QRN_BENCH_CAMPAIGN_HOURS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200.0)
}

fn bench_worker_scaling(c: &mut Criterion) {
    let hours = campaign_hours();
    let mut group = c.benchmark_group("sim/worker_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(hours as u64));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    Campaign::new(
                        urban_scenario().expect("scenario builds"),
                        CautiousPolicy::default(),
                    )
                    .hours(Hours::new(hours).expect("positive"))
                    .workers(workers)
                    .seed(1)
                    .run()
                    .expect("campaign runs")
                })
            },
        );
    }
    group.finish();
}

fn bench_counting_campaign(c: &mut Criterion) {
    let hours = campaign_hours();
    let classification = paper_classification().expect("classification builds");
    let mut group = c.benchmark_group("sim/counting_campaign");
    group.sample_size(10);
    group.throughput(Throughput::Elements(hours as u64));
    group.bench_function("streaming", |b| {
        b.iter(|| {
            Campaign::new(
                urban_scenario().expect("scenario builds"),
                CautiousPolicy::default(),
            )
            .hours(Hours::new(hours).expect("positive"))
            .workers(8)
            .seed(1)
            .run_counting(&classification)
            .expect("campaign runs")
        })
    });
    group.bench_function("recording", |b| {
        b.iter(|| {
            Campaign::new(
                urban_scenario().expect("scenario builds"),
                CautiousPolicy::default(),
            )
            .hours(Hours::new(hours).expect("positive"))
            .workers(8)
            .seed(1)
            .run()
            .expect("campaign runs")
        })
    });
    group.finish();
}

fn bench_encounter(c: &mut Criterion) {
    let challenge = Challenge {
        object: qrn_core::object::ObjectType::Vru,
        initial_gap: Meters::new(40.0).expect("positive"),
        object_speed: Speed::ZERO,
        object_decel: 0.0,
        clears_after_s: f64::INFINITY,
    };
    c.bench_function("sim/single_encounter", |b| {
        let mut rng = seeded(2);
        b.iter(|| {
            run_encounter(
                black_box(&challenge),
                Speed::from_kmh(50.0).expect("positive"),
                &CautiousPolicy::default(),
                &VehicleParams::typical(),
                &PerceptionParams::typical(),
                &ActiveFaults::healthy(),
                &mut rng,
            )
        })
    });
}

/// One timed crude campaign; returns (sim-hours/second, encounter-seconds
/// per simulated hour).
fn timed_crude(hours: f64, workers: usize) -> (f64, f64) {
    let classification = paper_classification().expect("classification builds");
    let start = Instant::now();
    let result = Campaign::new(
        urban_scenario().expect("scenario builds"),
        CautiousPolicy::default(),
    )
    .hours(Hours::new(hours).expect("positive"))
    .workers(workers)
    .seed(1)
    .run_counting(&classification)
    .expect("campaign runs");
    let secs = start.elapsed().as_secs_f64();
    (hours / secs, result.encounter_seconds / hours)
}

/// Writes `results/BENCH_sim.json`, the machine-local perf baseline:
/// every throughput is the median and quartiles of repeated timed runs.
fn emit_perf_baseline() {
    let hours = campaign_hours();
    let host_cpus = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let repeats = if quick() { 3 } else { 9 };

    let mut crude_rows = Vec::new();
    let mut crude_full = (0.0, 0.0);
    for workers in [1usize, 2, 4, 8] {
        let runs: Vec<(f64, f64)> = (0..repeats).map(|_| timed_crude(hours, workers)).collect();
        let mut row = serde_json::json!({
            "workers": workers,
            "repeats": repeats,
        });
        let rate = insert_quartiles(
            &mut row,
            "sim_hours_per_second",
            runs.iter().map(|&(rate, _)| rate).collect(),
        );
        if workers == 8 {
            // Encounter-seconds are simulated time: every seeded run
            // reports the same value.
            crude_full = (rate, runs[0].1);
        }
        crude_rows.push(row);
    }

    let classification = paper_classification().expect("classification builds");
    let config = SplittingConfig::geometric(5);
    let mut split_rates = Vec::with_capacity(repeats);
    let mut split = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let result = Campaign::new(
            urban_scenario().expect("scenario builds"),
            CautiousPolicy::default(),
        )
        .hours(Hours::new(hours).expect("positive"))
        .workers(8)
        .seed(1)
        .run_splitting(&classification, &config)
        .expect("splitting campaign runs");
        split_rates.push(hours / start.elapsed().as_secs_f64());
        split = Some(result);
    }
    let split = split.expect("at least one repeat");

    let (crude_rate, crude_cost) = crude_full;
    let cost_ratio = (split.encounter_seconds / hours) / crude_cost;
    // Report the leaf the ladder helps most; the bespoke rare-event world
    // in exp_rare_event pushes this far higher (see that artefact).
    let (target_leaf, vr_stat) = split
        .counts()
        .filter(|(_, count)| count.observations() > 0)
        .map(|(id, count)| (id.to_string(), count.variance_reduction()))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or_else(|| ("none".to_string(), 1.0));
    let vr_matched = vr_stat / cost_ratio;
    let mut splitting = serde_json::json!({
        "levels": split.levels,
        "effort": split.effort,
        "repeats": repeats,
        "cost_ratio_encounter_seconds": cost_ratio,
        "target_leaf": target_leaf,
        "variance_reduction_statistical": vr_stat,
        "variance_reduction_matched_compute": vr_matched,
        "effective_sim_hours_per_second": crude_rate * vr_matched,
    });
    insert_quartiles(&mut splitting, "sim_hours_per_second", split_rates);

    save_json(
        "BENCH_sim",
        &serde_json::json!({
            "campaign_hours": hours,
            "host_cpus": host_cpus,
            "quick": quick(),
            "repeats": repeats,
            "scenario": "urban",
            "policy": "cautious",
            "crude": crude_rows,
            "splitting": splitting,
            "note": "machine-local: sim-hours per wall-clock second, the median and \
                     quartiles of repeated seeded runs; effective_sim_hours_per_second \
                     is the 8-worker crude median times the matched-compute variance \
                     reduction",
        }),
    );
}

criterion_group!(
    benches,
    bench_worker_scaling,
    bench_counting_campaign,
    bench_encounter
);

fn main() {
    benches();
    emit_perf_baseline();
}
