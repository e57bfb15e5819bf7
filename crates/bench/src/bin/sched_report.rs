//! Multi-tenant scheduler throughput report — runs the seeded arrival
//! trace through the EDF dispatcher at several seeds and writes
//! `results/SCHED_throughput.json`: jobs/hour, deadline miss rate, and
//! the billed-hour savings the warm-instance pool extracts from flat
//! hourly billing (same trace re-run with `warm_reuse: false`).
//!
//! Before writing anything the report re-runs the pooled configuration
//! at the first seed with a recording sink and asserts the two NDJSON
//! logs are byte-identical — the scheduler is deterministic or the
//! numbers are meaningless.
//!
//! The `dispatch_scale` section times `run_trace` itself: host jobs/s,
//! best of 3, on open-loop traces of 2k–32k jobs with the instance-family
//! catalog on, so whether dispatch keeps pace as the run grows is a
//! committed number.
//!
//! `--smoke` / `SMOKE=1` shrinks the traces (≤ 4k jobs in the sweep) for
//! CI-speed runs.

use bench::{smoke, Table, RESULTS_DIR};
use ec2sim::{CloudConfig, InstanceFamily};
use obs::Obs;
use sched::{run_trace, PoolConfig, SchedConfig, SchedReport, TraceConfig};
use serde::Serialize;
use std::time::Instant;

const SEEDS: [u64; 3] = [11, 42, 1009];
/// Trace seed of the dispatch-scale sweep.
const SCALE_SEED: u64 = 1;
/// Timed runs per sweep point; the fastest is reported.
const SCALE_REPS: usize = 3;

#[derive(Debug, Serialize)]
struct SeedRow {
    seed: u64,
    jobs: usize,
    completed: usize,
    rejected: usize,
    missed: usize,
    jobs_per_hour: f64,
    miss_rate: f64,
    makespan_secs: f64,
    pooled_billed_hours: u64,
    isolated_billed_hours: u64,
    savings_hours: u64,
    savings_fraction: f64,
    warm_hits: u64,
    cold_launches: u64,
}

/// One point of the dispatch-scale sweep.
#[derive(Debug, Serialize)]
struct ScaleRow {
    jobs: usize,
    /// Fastest of [`SCALE_REPS`] host wall times of `run_trace` after one
    /// untimed warm-up run, seconds.
    best_secs: f64,
    jobs_per_sec: f64,
    deferrals: u64,
    missed: usize,
    total_cost: f64,
}

#[derive(Debug, Serialize)]
struct DispatchScale {
    /// Host threads (`available_parallelism`); dispatch is single-threaded.
    nproc: usize,
    seed: u64,
    mean_interarrival_secs: f64,
    catalog: bool,
    reps: usize,
    points: Vec<ScaleRow>,
}

#[derive(Debug, Serialize)]
struct Report {
    trace_jobs: usize,
    tenants: u32,
    pool_capacity: usize,
    log_byte_identical_across_runs: bool,
    seeds: Vec<SeedRow>,
    dispatch_scale: DispatchScale,
}

fn trace_config(seed: u64) -> TraceConfig {
    TraceConfig {
        jobs: if smoke() { 16 } else { 48 },
        seed,
        ..TraceConfig::default()
    }
}

fn sched_config(seed: u64, warm_reuse: bool) -> SchedConfig {
    let mut cfg = SchedConfig {
        cloud: CloudConfig {
            homogeneous: true,
            ..CloudConfig::default()
        },
        pool: PoolConfig {
            warm_reuse,
            ..PoolConfig::default()
        },
        exec: provision::ExecutionConfig {
            staging: provision::StagingTier::Local,
            stage_in_secs: 30.0,
            ..provision::ExecutionConfig::default()
        },
        ..SchedConfig::default()
    };
    cfg.cloud.seed = seed;
    cfg
}

fn run(seed: u64, warm_reuse: bool, obs: Option<Obs>) -> SchedReport {
    let mut cfg = sched_config(seed, warm_reuse);
    if let Some(sink) = obs {
        cfg.obs = sink;
    }
    let trace = trace_config(seed).generate();
    run_trace(&cfg, &trace).expect("scheduling run failed")
}

/// Host throughput of `run_trace` on growing open-loop traces with the
/// catalog on (the `tenant_burst` configuration).
fn dispatch_scale() -> DispatchScale {
    let sizes: &[usize] = if smoke() {
        &[1_000, 2_000, 4_000]
    } else {
        &[2_000, 4_000, 8_000, 16_000, 32_000]
    };
    let mean_gap = TraceConfig::default().mean_interarrival_secs;
    let mut cfg = SchedConfig {
        catalog: Some(InstanceFamily::catalog()),
        ..SchedConfig::default()
    };
    cfg.cloud.seed = SCALE_SEED;
    let mut table = Table::new(
        "dispatch scale: run_trace host throughput, catalog on, best of 3",
        &["jobs", "best (s)", "jobs/s", "deferrals", "missed"],
    );
    let mut points = Vec::new();
    for &jobs in sizes {
        let trace = TraceConfig {
            jobs,
            seed: SCALE_SEED,
            ..TraceConfig::default()
        }
        .generate();
        // An untimed warm-up run supplies the simulated outcome.
        let report = run_trace(&cfg, &trace).expect("scheduling run failed");
        let mut best = f64::INFINITY;
        for _ in 0..SCALE_REPS {
            let start = Instant::now();
            let timed = run_trace(&cfg, &trace).expect("scheduling run failed");
            best = best.min(start.elapsed().as_secs_f64());
            assert!(
                timed == report,
                "same trace, same config, different schedule"
            );
        }
        let row = ScaleRow {
            jobs,
            best_secs: best,
            jobs_per_sec: jobs as f64 / best,
            deferrals: report.jobs.iter().map(|j| j.deferrals).sum(),
            missed: report.missed,
            total_cost: report.total_cost,
        };
        table.row(vec![
            jobs.to_string(),
            format!("{best:.3}"),
            format!("{:.0}", row.jobs_per_sec),
            row.deferrals.to_string(),
            row.missed.to_string(),
        ]);
        points.push(row);
    }
    table.print();
    DispatchScale {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        seed: SCALE_SEED,
        mean_interarrival_secs: mean_gap,
        catalog: true,
        reps: SCALE_REPS,
        points,
    }
}

fn main() {
    // Determinism gate: same seed, same trace ⇒ byte-identical event log.
    let sink_a = Obs::recording(SEEDS[0]);
    let sink_b = Obs::recording(SEEDS[0]);
    run(SEEDS[0], true, Some(sink_a.clone()));
    run(SEEDS[0], true, Some(sink_b.clone()));
    let identical = sink_a.to_ndjson() == sink_b.to_ndjson();
    assert!(
        identical,
        "same-seed scheduler runs must emit byte-identical NDJSON logs"
    );

    let mut rows = Vec::new();
    for seed in SEEDS {
        let pooled = run(seed, true, None);
        let isolated = run(seed, false, None);
        assert_eq!(
            pooled.jobs.len(),
            isolated.jobs.len(),
            "pool policy must not change the set of jobs"
        );
        let savings = isolated.total_billed_hours - pooled.total_billed_hours;
        rows.push(SeedRow {
            seed,
            jobs: pooled.jobs.len(),
            completed: pooled.completed,
            rejected: pooled.rejected,
            missed: pooled.missed,
            jobs_per_hour: pooled.jobs_per_hour(),
            miss_rate: pooled.miss_rate(),
            makespan_secs: pooled.makespan_secs,
            pooled_billed_hours: pooled.total_billed_hours,
            isolated_billed_hours: isolated.total_billed_hours,
            savings_hours: savings,
            savings_fraction: if isolated.total_billed_hours > 0 {
                savings as f64 / isolated.total_billed_hours as f64
            } else {
                0.0
            },
            warm_hits: pooled.pool.warm_hits,
            cold_launches: pooled.pool.cold_launches,
        });
    }

    let trace = trace_config(SEEDS[0]);
    let mut table = Table::new(
        &format!(
            "multi-tenant scheduler throughput, {} jobs x {} tenants, pool capacity {}",
            trace.jobs,
            trace.tenants,
            PoolConfig::default().capacity
        ),
        &[
            "seed",
            "jobs/h",
            "miss%",
            "pooled(h)",
            "isolated(h)",
            "saved",
            "warm hits",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.seed.to_string(),
            format!("{:.2}", r.jobs_per_hour),
            format!("{:.1}", r.miss_rate * 100.0),
            r.pooled_billed_hours.to_string(),
            r.isolated_billed_hours.to_string(),
            format!("{} ({:.0}%)", r.savings_hours, r.savings_fraction * 100.0),
            r.warm_hits.to_string(),
        ]);
    }
    table.print();

    let report = Report {
        trace_jobs: trace.jobs,
        tenants: trace.tenants,
        pool_capacity: PoolConfig::default().capacity,
        log_byte_identical_across_runs: identical,
        seeds: rows,
        dispatch_scale: dispatch_scale(),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let dir = std::path::PathBuf::from(RESULTS_DIR);
    std::fs::create_dir_all(&dir).expect("results dir");
    let path = dir.join("SCHED_throughput.json");
    std::fs::write(&path, json + "\n").expect("write SCHED_throughput.json");
    println!("[json] {}", path.display());
}
