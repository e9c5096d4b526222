//! Criterion bench of the anytime-valid verdict path: the per-look cost
//! of one confidence-sequence interval plus one budget e-value — the
//! exact statistical work `GET /v1/burndown` adds per goal in
//! `--sequential` mode.
//!
//! After the criterion groups run, the harness writes the machine-local
//! perf baseline `results/BENCH_confseq.json`: nanoseconds per verdict,
//! and separately per interval and per e-value, across event counts
//! spanning six orders of magnitude, each the median and quartiles of
//! several timed repeats.
//!
//! The verdict cost is *not* flat in the event count. The interval is
//! a bisection from the MLE whose bracket grows by halving/doubling, so
//! it is nearly flat. The e-value evaluates the regularized upper
//! incomplete gamma `Q(a + k, (t + b)λ0)`, whose series/continued
//! fraction needs iterations that grow with the shape `a + k` (about
//! `√k` at the budget MLE) — that term carries the growth. The harness
//! asserts the growth stays bounded: at most 25× from 10 to 1e6 events.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::time::Instant;

use qrn_bench::report::save_json;
use qrn_stats::confseq::{BudgetEValue, GammaMixture, PoissonConfSeq};
use qrn_units::{Frequency, Hours};

fn quick() -> bool {
    std::env::var("QRN_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Budget f_I used throughout: 1e-3/h, the paper's mid-band magnitude.
fn budget() -> Frequency {
    Frequency::per_hour(1e-3).expect("static budget")
}

fn machinery() -> (PoissonConfSeq, BudgetEValue) {
    let mixture = GammaMixture::default_at(budget()).expect("mixture tunes");
    let confseq = PoissonConfSeq::new(0.05, mixture).expect("valid level");
    let e_process = BudgetEValue::new(budget(), mixture).expect("e-process builds");
    (confseq, e_process)
}

/// Exposure placing `events` at the budget MLE — the operating point
/// where the verdict is least decided and the bisection works hardest.
fn exposure_for(events: u64) -> Hours {
    Hours::new((events.max(1) as f64) / 1e-3).expect("positive")
}

fn bench_interval(c: &mut Criterion) {
    let (confseq, _) = machinery();
    let exposure = exposure_for(1_000);
    c.bench_function("confseq/interval_1e3_events", |b| {
        b.iter(|| {
            confseq
                .interval(black_box(1_000), black_box(exposure))
                .expect("converges")
        })
    });
}

fn bench_e_value(c: &mut Criterion) {
    let (_, e_process) = machinery();
    let exposure = exposure_for(1_000);
    c.bench_function("confseq/e_value_1e3_events", |b| {
        b.iter(|| {
            e_process
                .log_e_value(black_box(1_000), black_box(exposure))
                .expect("converges")
        })
    });
}

/// One full sequential verdict: interval + e-value, as `goal_rows` runs
/// per goal per look.
fn verdict(
    confseq: &PoissonConfSeq,
    e_process: &BudgetEValue,
    events: u64,
    exposure: Hours,
) -> f64 {
    let interval = confseq.interval(events, exposure).expect("converges");
    let log_e = e_process.log_e_value(events, exposure).expect("converges");
    interval.upper.as_per_hour() + log_e
}

/// Median and quartiles, in nanoseconds per call, of `repeats` timed
/// loops of `reps` calls of `f`.
fn nanos_per_call(repeats: usize, reps: u32, mut f: impl FnMut() -> f64) -> [f64; 3] {
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let mut sink = 0.0;
            let start = Instant::now();
            for _ in 0..reps {
                sink += f();
            }
            black_box(sink);
            start.elapsed().as_nanos() as f64 / f64::from(reps)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    [at(0.25), at(0.5), at(0.75)]
}

/// Writes `results/BENCH_confseq.json` and asserts the per-look verdict
/// cost grows at most 25× as the event count grows 1e5-fold (from 10 to
/// 1e6 events); the e-value's incomplete gamma carries that growth.
fn emit_confseq_baseline() {
    let (confseq, e_process) = machinery();
    let reps: u32 = if quick() { 500 } else { 4_000 };
    let repeats = if quick() { 3 } else { 9 };

    let mut rows = Vec::new();
    let mut cost_small = 0.0f64;
    let mut cost_large = 0.0f64;
    for events in [0u64, 10, 1_000, 100_000, 1_000_000] {
        let exposure = exposure_for(events);
        let [v25, nanos, v75] = nanos_per_call(repeats, reps, || {
            verdict(&confseq, &e_process, black_box(events), black_box(exposure))
        });
        let [i25, interval, i75] = nanos_per_call(repeats, reps, || {
            let interval = confseq
                .interval(black_box(events), black_box(exposure))
                .expect("converges");
            interval.upper.as_per_hour()
        });
        let [e25, e_value, e75] = nanos_per_call(repeats, reps, || {
            e_process
                .log_e_value(black_box(events), black_box(exposure))
                .expect("converges")
        });
        if events == 10 {
            cost_small = nanos;
        }
        if events == 1_000_000 {
            cost_large = nanos;
        }
        println!(
            "confseq/verdict events={events}: {nanos:.0} ns/look \
             (interval {interval:.0} ns, e-value {e_value:.0} ns)"
        );
        rows.push(serde_json::json!({
            "events": events,
            "exposure_hours": exposure.value(),
            "nanos_per_verdict": nanos,
            "nanos_per_verdict_p25": v25,
            "nanos_per_verdict_p75": v75,
            "nanos_per_interval": interval,
            "nanos_per_interval_p25": i25,
            "nanos_per_interval_p75": i75,
            "nanos_per_e_value": e_value,
            "nanos_per_e_value_p25": e25,
            "nanos_per_e_value_p75": e75,
        }));
    }

    save_json(
        "BENCH_confseq",
        &serde_json::json!({
            "host_cpus": std::thread::available_parallelism().map(usize::from).unwrap_or(1),
            "quick": quick(),
            "reps": reps,
            "repeats": repeats,
            "budget_per_hour": 1e-3,
            "alpha": 0.05,
            "verdicts": rows,
            "note": "ns per sequential verdict (confidence-sequence interval + budget \
                     e-value) at the budget MLE operating point, median and quartiles \
                     over repeats of reps calls; the verdict cost grows with the event \
                     count, and the e-value term carries the growth: its regularized \
                     incomplete gamma Q(a + k, (t + b) budget) needs more iterations as \
                     the shape a + k grows, while the interval's bisection stays nearly \
                     flat",
        }),
    );

    assert!(
        cost_large <= cost_small * 25.0,
        "per-look verdict cost must grow at most 25x from 10 to 1e6 events: \
         {cost_large:.0} ns at 1e6 events vs {cost_small:.0} ns at 10"
    );
}

criterion_group!(benches, bench_interval, bench_e_value);

fn main() {
    benches();
    emit_confseq_baseline();
}
