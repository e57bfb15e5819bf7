//! `paper_grep`: the paper-scale pipeline. The full 18M-file HTML_18mil
//! manifest runs through screen → probe → reshape → fit → plan → execute
//! for grep with D = 3600 s and the §5.2 adjusted-deadline strategy.
//!
//! The untraced run calls `Pipeline::run`. The traced run re-composes the
//! same pipeline from the crates' public functions with a span around each
//! call, and must produce an identical `PipelineReport`.

use crate::harness::{metric, Checks, Ctx, Metric, Outcome, Prediction, ROOT};
use crate::trace::{Phase, Tracer};
use binpack::Parallelism;
use corpus::Manifest;
use ec2sim::{
    acquire_good_instance, AvailabilityZone, Cloud, CloudError, DataLocation, InstanceType,
};
use obs::Obs;
use perfmodel::{choose_unit_size, fit, ProbeSetResult, UnitSize};
use provision::{execute_plan_observed, make_plan, ExecutionConfig, StagingTier, Strategy};
use reshape::{
    reshape_manifest_par, App, ModelSelection, Pipeline, PipelineConfig, PipelineReport, Workload,
};
use serde::Value;

const DEADLINE_SECS: f64 = 3600.0;
const P_MISS: f64 = 0.1;
/// A dictionary word that never occurs: the paper's worst case.
const PATTERN: &str = "nonsenseword";

fn config(workers: usize) -> PipelineConfig {
    PipelineConfig {
        deadline_secs: DEADLINE_SECS,
        strategy: Strategy::AdjustedDeadline { p_miss: P_MISS },
        parallelism: Parallelism::Rayon(workers),
        // The benchmark checks byte conservation itself, outside the
        // timed region.
        validate: false,
        ..PipelineConfig::default()
    }
}

pub fn run(ctx: &mut Ctx, workers: usize) -> Result<Outcome, String> {
    let seed = ctx.seed;
    let manifest = ctx.setup(|t| t.span("corpus.manifest", |_| corpus::html_18mil(1.0, seed)));
    let files = manifest.len() as u64;
    let manifest_bytes = manifest.total_volume();
    let workload = Workload::new(manifest, App::grep(PATTERN));
    let cfg = config(workers);
    let pipeline = Pipeline::new(cfg.clone());

    let reference = ctx
        .warmup(|| pipeline.run(&workload))
        .map_err(|e| format!("pipeline failed: {e}"))?;
    let reference_sim = sim(&reference);
    check_report(&mut ctx.checks, &reference, manifest_bytes);

    ctx.measure(
        || pipeline.run(&workload).map_err(|e| e.to_string()),
        |t| t.span(ROOT, |t| traced_pipeline(&cfg, &workload, t)),
        |checks, out| match out {
            Ok(report) => {
                checks.same_sim(&reference_sim, &sim(&report));
                checks.check("report repeats", report == reference, || {
                    "a repetition or the re-composed pipeline differs from Pipeline::run".into()
                });
            }
            Err(e) => checks.check("pipeline runs", false, || e),
        },
    );

    let mut out = Outcome {
        item: "files",
        items: files,
        payload_bytes: None,
        sim: reference_sim,
        params: vec![
            ("files", Value::U64(files)),
            ("manifest_bytes", Value::U64(manifest_bytes)),
            ("deadline_s", Value::F64(DEADLINE_SECS)),
            ("p_miss", Value::F64(P_MISS)),
            ("workers", Value::U64(workers as u64)),
            ("unit", Value::String(format!("{:?}", reference.unit))),
            (
                "planned_instances",
                Value::U64(reference.planned_instances as u64),
            ),
        ],
        ..Outcome::default()
    };
    if ctx.traced() {
        ctx.same_calls("ec2sim.run_app");
        let tr = &ctx.tracer;
        out.layer = vec![
            metric(
                "corpus.manifest_s",
                "s",
                tr.total(Phase::Setup, "corpus.manifest"),
            ),
            metric(
                "ec2sim.screen_s",
                "s",
                tr.total(Phase::Traced, "ec2sim.screen"),
            ),
            metric(
                "ec2sim.screen_attempts",
                "count",
                reference.screening_attempts as f64,
            ),
            metric(
                "ec2sim.run_app_s",
                "s",
                tr.total(Phase::Traced, "ec2sim.run_app"),
            ),
            metric(
                "ec2sim.run_app_calls",
                "count",
                tr.calls(Phase::Traced, "ec2sim.run_app"),
            ),
            metric(
                "perfmodel.probe_s",
                "s",
                tr.self_time(Phase::Traced, "perfmodel.probe"),
            ),
            metric(
                "perfmodel.fit_s",
                "s",
                tr.total(Phase::Traced, "perfmodel.fit"),
            ),
            metric(
                "binpack.pack_s",
                "s",
                tr.total(Phase::Traced, "binpack.pack"),
            ),
            metric("binpack.pack_items", "count", files as f64),
            metric(
                "binpack.pack_bins",
                "count",
                reference.reshape.files.len() as f64,
            ),
            metric(
                "provision.plan_s",
                "s",
                tr.total(Phase::Traced, "provision.plan"),
            ),
            metric(
                "provision.execute_s",
                "s",
                tr.total(Phase::Traced, "provision.execute"),
            ),
        ];
        let children = tr.child_totals(ROOT);
        let largest = children.first().map(|c| c.0).unwrap_or("none");
        out.predictions.push(Prediction {
            claim: "pack is the largest span on paper_grep",
            held: largest == "binpack.pack",
            evidence: children
                .iter()
                .map(|(n, s)| format!("{n} {s:.4} s"))
                .collect::<Vec<_>>()
                .join(", "),
        });
    }
    Ok(out)
}

/// Simulated outcome of the fleet run; deterministic for a seed.
fn sim(report: &PipelineReport) -> Vec<Metric> {
    let ex = &report.execution;
    vec![
        metric("sim_cost_usd", "$", ex.cost),
        metric("sim_makespan_s", "s", ex.makespan_secs),
        metric(
            "sim_miss_rate",
            "ratio",
            ex.misses as f64 / ex.runs.len().max(1) as f64,
        ),
    ]
}

fn check_report(checks: &mut Checks, report: &PipelineReport, manifest_bytes: u64) {
    let reshaped: u64 = report.reshape.files.iter().map(|f| f.size).sum();
    checks.check(
        "reshaped bytes equal manifest bytes",
        reshaped == manifest_bytes,
        || format!("{reshaped} reshaped, {manifest_bytes} in the manifest"),
    );
    let executed: u64 = report.execution.runs.iter().map(|r| r.volume).sum();
    checks.check(
        "executed bytes equal manifest bytes",
        executed == manifest_bytes,
        || format!("{executed} executed, {manifest_bytes} in the manifest"),
    );
}

/// `Pipeline::run` for [`config`], re-composed from public calls with a
/// span around each layer.
fn traced_pipeline(
    cfg: &PipelineConfig,
    workload: &Workload,
    t: &mut Tracer,
) -> Result<PipelineReport, String> {
    let err = |e: CloudError| format!("cloud error: {e}");
    let mut cloud = Cloud::new(cfg.cloud);
    let zone = AvailabilityZone::us_east_1a();
    let (probe_inst, attempts) = t
        .span("ec2sim.screen", |_| {
            acquire_good_instance(&mut cloud, InstanceType::Small, zone, &cfg.screening)
        })
        .map_err(err)?;

    let manifest: &Manifest = &workload.manifest;
    let probe_volume = cfg.probe.max_volume.min(manifest.total_volume()).max(1);
    let data = match cfg.staging {
        StagingTier::Ebs => {
            let vol = cloud.create_volume(zone, probe_volume.saturating_mul(2).max(1));
            cloud.attach_volume(vol, probe_inst).map_err(err)?;
            DataLocation::Ebs {
                volume: vol,
                offset: 0,
            }
        }
        StagingTier::Local => DataLocation::Local,
    };
    let model = workload.app.cost_model();
    let mut measure_err = None;
    let probe_sets = t.span("perfmodel.probe", |t| {
        cfg.probe.run_with(
            manifest,
            |files| {
                t.span("ec2sim.run_app", |_| {
                    match cloud.run_app(probe_inst, model, files, data) {
                        Ok(r) => r.observed_secs,
                        Err(e) => {
                            measure_err = Some(e);
                            f64::NAN
                        }
                    }
                })
            },
            cfg.parallelism,
        )
    });
    if let Some(e) = measure_err {
        return Err(err(e));
    }
    let unit = choose_unit_size(&probe_sets, cfg.probe.stability_cv)
        .ok_or("probe campaign produced no measurements")?;

    let reshape = t.span("binpack.pack", |_| {
        reshape_manifest_par(manifest, unit, cfg.parallelism)
    });

    let ModelSelection::Fixed(kind) = cfg.selection else {
        return Err("the benchmark re-composes the fixed-model pipeline only".into());
    };
    let final_fit = t.span("perfmodel.fit", |_| {
        let (xs, ys) = observations_at_unit(&probe_sets, unit);
        if xs.len() < 2 || xs.iter().all(|&x| x == xs[0]) {
            return Err("not enough distinct volumes to fit a model".to_string());
        }
        Ok(fit(kind, &xs, &ys))
    })?;
    cloud.terminate(probe_inst).map_err(err)?;

    let plan = t
        .span("provision.plan", |_| {
            make_plan(cfg.strategy, &reshape.files, &final_fit, cfg.deadline_secs)
        })
        .map_err(|e| format!("plan failed: {e:?}"))?;

    let exec_cfg = ExecutionConfig {
        staging: cfg.staging,
        screen: cfg.screen_fleet,
        ..ExecutionConfig::default()
    };
    let execution = t
        .span("provision.execute", |_| {
            execute_plan_observed(&mut cloud, &plan, model, &exec_cfg, &Obs::default())
        })
        .map_err(err)?;

    Ok(PipelineReport {
        unit,
        probe_sets,
        reshape,
        fit: final_fit,
        base_fit: None,
        planned_instances: plan.instance_count(),
        predicted_makespan_secs: plan.predicted_makespan(),
        execution,
        screening_attempts: attempts,
        degraded: None,
    })
}

/// Every repeated probe run at the chosen unit is one (volume, runtime)
/// observation, as in the pipeline.
fn observations_at_unit(sets: &[ProbeSetResult], unit: UnitSize) -> (Vec<f64>, Vec<f64>) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for set in sets {
        for (u, _, m) in &set.points {
            if *u == unit {
                for &run in &m.runs {
                    xs.push(m.volume as f64);
                    ys.push(run);
                }
            }
        }
    }
    (xs, ys)
}
