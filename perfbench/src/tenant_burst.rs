//! `tenant_burst`: multi-tenant arrival traces through the scheduler with
//! the instance-family catalog on.
//!
//! An open loop on the simulated clock: jobs arrive on their own schedule
//! (exponential gaps, mean 120 s) faster than the pool can serve them, so
//! the pending queue grows for the whole run. Host time goes to admission,
//! EDF dispatch, the warm pool, per-job family re-planning in `market` and
//! the `provision` executor.
//!
//! How much the queue backs up, and with it the dispatch work per job,
//! differs from one trace to the next. One repetition therefore runs
//! [`BURSTS`] independent traces drawn from the seed, so a single trace's
//! queue does not set the throughput of the whole seed.

use crate::harness::{metric, Checks, Ctx, Metric, Outcome, Prediction, ROOT};
use crate::stats::percentile;
use crate::trace::{Phase, Tracer};
use ec2sim::InstanceFamily;
use obs::Obs;
use sched::{admit, run_trace, ArrivalTrace, JobStatus, SchedConfig, SchedReport, TraceConfig};
use serde::Value;

/// Independent traces per repetition.
const BURSTS: u64 = 4;
/// Jobs in each trace.
const JOBS: usize = 4_000;
/// Mean simulated gap between arrivals, seconds.
const MEAN_GAP_S: f64 = 120.0;
/// Share of the dispatch run that per-job family planning must reach for
/// the "large share" prediction to hold.
const LARGE_SHARE: f64 = 0.25;

/// One trace with the scheduler configuration that serves it.
struct Burst {
    cfg: SchedConfig,
    trace: ArrivalTrace,
}

/// Seed of burst `k` of run seed `seed`: distinct across bursts and seeds.
fn burst_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(BURSTS).wrapping_add(k)
}

fn trace_config(seed: u64, jobs: usize) -> TraceConfig {
    TraceConfig {
        jobs,
        seed,
        mean_interarrival_secs: MEAN_GAP_S,
        ..TraceConfig::default()
    }
}

fn sched_config(seed: u64) -> SchedConfig {
    let mut cfg = SchedConfig {
        catalog: Some(InstanceFamily::catalog()),
        ..SchedConfig::default()
    };
    cfg.cloud.seed = seed;
    cfg
}

fn run_bursts(bursts: &[Burst], t: &mut Tracer) -> Result<Vec<SchedReport>, String> {
    bursts
        .iter()
        .map(|b| {
            t.span("sched.run_trace", |_| run_trace(&b.cfg, &b.trace))
                .map_err(|e| format!("scheduling run failed: {e}"))
        })
        .collect()
}

/// FNV-1a over the log bytes: enough to compare two logs.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One run with a recording sink: (log digest, events, log bytes).
fn recorded(burst: &Burst, t: &mut Tracer) -> Result<(u64, u64, u64), String> {
    let rec = SchedConfig {
        obs: Obs::recording(burst.cfg.cloud.seed),
        ..burst.cfg.clone()
    };
    t.span("obs.recording_run", |_| run_trace(&rec, &burst.trace))
        .map_err(|e| format!("recording run failed: {e}"))?;
    let log = t.span("obs.to_ndjson", |_| rec.obs.to_ndjson());
    Ok((
        digest(log.as_bytes()),
        rec.obs.event_count() as u64,
        log.len() as u64,
    ))
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let seed = ctx.seed;
    let bursts = ctx.setup(|t| {
        (0..BURSTS)
            .map(|k| {
                let s = burst_seed(seed, k);
                Burst {
                    cfg: sched_config(s),
                    trace: t.span("sched.trace_gen", |_| trace_config(s, JOBS).generate()),
                }
            })
            .collect::<Vec<_>>()
    });
    let catalog = InstanceFamily::catalog();

    let mut quiet = Tracer::new(false);
    let reference = ctx.warmup(|| run_bursts(&bursts, &mut quiet))?;
    let reference_sim = sim(&reference);
    for (b, report) in bursts.iter().zip(&reference) {
        check_report(&mut ctx.checks, &b.trace, report);
    }

    // Events and log bytes of the traced repetitions' recording runs.
    let mut logged = (0u64, 0u64);
    ctx.measure(
        || run_bursts(&bursts, &mut quiet),
        |t| {
            let reports = t.span(ROOT, |t| run_bursts(&bursts, t));
            // Each layer on its own, outside the measured operation.
            t.span("sched.admit", |_| {
                for b in &bursts {
                    for job in &b.trace.jobs {
                        std::hint::black_box(admit(
                            job,
                            b.cfg.fits.for_kind(job.app),
                            b.cfg.p_miss,
                            b.cfg.pool.capacity,
                        ));
                    }
                }
            });
            t.span("market.plan_on_family", |_| {
                for b in &bursts {
                    for job in &b.trace.jobs {
                        let fit = b.cfg.fits.for_kind(job.app);
                        for fam in &catalog {
                            std::hint::black_box(market::plan_on_family(
                                &job.files,
                                fit,
                                fam,
                                job.deadline_secs,
                                b.cfg.p_miss,
                            ))
                            .ok();
                        }
                    }
                }
            });
            logged = (0, 0);
            for b in &bursts {
                let (_, events, bytes) = recorded(b, t)?;
                logged.0 += events;
                logged.1 += bytes;
            }
            reports
        },
        |checks, out| match out {
            Ok(reports) => {
                checks.same_sim(&reference_sim, &sim(&reports));
                checks.check("reports repeat", reports == reference, || {
                    "a repetition's schedule differs from the first run".into()
                });
            }
            Err(e) => checks.check("scheduling runs", false, || e),
        },
    );

    // Two recording runs of the same trace must log the same bytes.
    let (d1, _, _) = recorded(&bursts[0], &mut quiet)?;
    let (d2, _, _) = recorded(&bursts[0], &mut quiet)?;
    ctx.checks.check("NDJSON digest repeats", d1 == d2, || {
        format!("digests {d1:016x} and {d2:016x}")
    });

    let jobs = BURSTS * JOBS as u64;
    let rejected: u64 = reference.iter().map(|r| r.rejected as u64).sum();
    let deferrals: u64 = reference
        .iter()
        .flat_map(|r| &r.jobs)
        .map(|j| j.deferrals)
        .sum();
    let mut out = Outcome {
        item: "jobs",
        items: jobs,
        payload_bytes: None,
        sim: reference_sim,
        params: vec![
            ("bursts", Value::U64(BURSTS)),
            ("jobs_per_burst", Value::U64(JOBS as u64)),
            ("dispatched_jobs", Value::U64(jobs - rejected)),
            ("mean_gap_s", Value::F64(MEAN_GAP_S)),
            (
                "tenants",
                Value::U64(u64::from(TraceConfig::default().tenants)),
            ),
            (
                "pool_capacity",
                Value::U64(bursts[0].cfg.pool.capacity as u64),
            ),
            ("families", Value::U64(catalog.len() as u64)),
            (
                "first_burst_log_digest",
                Value::String(format!("{d1:016x}")),
            ),
        ],
        ..Outcome::default()
    };
    if ctx.traced() {
        let tr = &ctx.tracer;
        let run_trace_s = tr.total(Phase::Traced, "sched.run_trace");
        let family_s = tr.total(Phase::Traced, "market.plan_on_family");
        let warm_hits: u64 = reference.iter().map(|r| r.pool.warm_hits).sum();
        let cold_launches: u64 = reference.iter().map(|r| r.pool.cold_launches).sum();
        out.layer = vec![
            metric("sched.run_trace_s", "s", run_trace_s),
            metric("sched.admit_s", "s", tr.total(Phase::Traced, "sched.admit")),
            metric(
                "sched.trace_gen_s",
                "s",
                tr.total(Phase::Setup, "sched.trace_gen"),
            ),
            metric("sched.deferrals", "count", deferrals as f64),
            metric("sched.dispatched", "count", (jobs - rejected) as f64),
            metric("sched.rejected", "count", rejected as f64),
            metric("sched.warm_hits", "count", warm_hits as f64),
            metric("sched.cold_launches", "count", cold_launches as f64),
            metric("market.plan_on_family_s", "s", family_s),
            metric("obs.events", "count", logged.0 as f64),
            metric("obs.ndjson_bytes", "bytes", logged.1 as f64),
            metric(
                "obs.to_ndjson_s",
                "s",
                tr.total(Phase::Traced, "obs.to_ndjson"),
            ),
            metric(
                "obs.record_overhead_s",
                "s",
                tr.total(Phase::Traced, "obs.recording_run") - run_trace_s,
            ),
        ];

        // Deferrals against job count: the first half of each trace is the
        // same jobs, so compare the two runs directly.
        let mut half_jobs = 0u64;
        let mut half_deferrals = 0u64;
        for k in 0..BURSTS {
            let s = burst_seed(seed, k);
            let half = trace_config(s, JOBS / 2).generate();
            let report = run_trace(&sched_config(s), &half)
                .map_err(|e| format!("half-trace run failed: {e}"))?;
            half_jobs += half.jobs.len() as u64;
            half_deferrals += report.jobs.iter().map(|j| j.deferrals).sum::<u64>();
        }
        let job_ratio = jobs as f64 / half_jobs as f64;
        let deferral_ratio = deferrals as f64 / half_deferrals.max(1) as f64;
        out.predictions.push(Prediction {
            claim: "sched.deferrals grows faster than the job count on tenant_burst",
            held: deferral_ratio > job_ratio,
            evidence: format!(
                "{half_jobs} jobs: {half_deferrals} deferrals; {jobs} jobs: {deferrals} deferrals \
                 (x{deferral_ratio:.2} for x{job_ratio:.2} jobs)"
            ),
        });
        let share = family_s / run_trace_s;
        out.predictions.push(Prediction {
            claim: "market.plan_on_family_s is a large share (>= 25 %) of tenant_burst",
            held: share >= LARGE_SHARE,
            evidence: format!(
                "every job x family planned on its own takes {family_s:.4} s, \
                 {:.1} % of the {run_trace_s:.4} s dispatch runs",
                100.0 * share
            ),
        });
    }
    Ok(out)
}

/// Simulated outcome over all bursts; deterministic for a seed. Cost is
/// summed, the makespan is the longest burst's, and waits are pooled over
/// the dispatched jobs. Rejected jobs count as missed.
fn sim(reports: &[SchedReport]) -> Vec<Metric> {
    let waits: Vec<f64> = reports
        .iter()
        .flat_map(|r| &r.jobs)
        .filter(|j| j.status != JobStatus::Rejected)
        .map(|j| j.wait_secs)
        .collect();
    let jobs: usize = reports.iter().map(|r| r.jobs.len()).sum();
    let late: usize = reports.iter().map(|r| r.missed + r.rejected).sum();
    vec![
        metric(
            "sim_cost_usd",
            "$",
            reports.iter().map(|r| r.total_cost).sum(),
        ),
        metric(
            "sim_makespan_s",
            "s",
            reports.iter().map(|r| r.makespan_secs).fold(0.0, f64::max),
        ),
        metric("sim_miss_rate", "ratio", late as f64 / jobs.max(1) as f64),
        metric("sim_wait_p50_s", "s", percentile(&waits, 50.0)),
        metric("sim_wait_p99_s", "s", percentile(&waits, 99.0)),
    ]
}

fn check_report(checks: &mut Checks, trace: &ArrivalTrace, report: &SchedReport) {
    let ids_match = report.jobs.len() == trace.jobs.len()
        && report
            .jobs
            .iter()
            .zip(&trace.jobs)
            .all(|(o, j)| o.job_id == j.id);
    checks.check("every job has an outcome", ids_match, || {
        format!(
            "{} outcomes for {} jobs",
            report.jobs.len(),
            trace.jobs.len()
        )
    });
    let summed: f64 = report.jobs.iter().map(|j| j.cost).sum();
    let tolerance = 1e-9 * report.total_cost.abs().max(1.0);
    checks.check(
        "per-job costs sum to the total",
        (summed - report.total_cost).abs() <= tolerance,
        || format!("jobs sum to {summed}, total is {}", report.total_cost),
    );
}
