//! Dedicated executor coverage: table-driven happy paths across strategies
//! and staging tiers, the `ProvisionError` branches, fault-recovery
//! properties of the resilient path (replanning after a crash costs at
//! most one extra instance-hour), and every executor recovering from a
//! scripted crash or a transient attach failure.

use corpus::FileSpec;
use ec2sim::{Cloud, CloudConfig, FaultConfig, FaultEvent, FaultKind, FaultPlan, InstanceFamily};
use obs::Obs;
use perfmodel::{fit, Fit, ModelKind};
use proptest::prelude::*;
use provision::{
    execute_dynamic, execute_plan, execute_plan_resilient_sourced, execute_quality_aware,
    make_plan, DegradedReport, DynamicConfig, ExecutionConfig, ExecutionReport, FreshFleet, Plan,
    ProvisionError, QualityAwareConfig, RetryPolicy, StagingTier, Strategy,
};
use textapps::GrepCostModel;

/// Model matched to the ideal cloud: 75 MB/s plus a 1 s fixed cost, with a
/// small alternating residual so the adjusted-deadline machinery has a
/// spread to work from.
fn grep_fit() -> Fit {
    let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e8).collect();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(k, &x)| 1.0 + x / 75.0e6 * (1.0 + 0.01 * if k % 2 == 0 { 1.0 } else { -1.0 }))
        .collect();
    fit(ModelKind::Affine, &xs, &ys)
}

fn corpus_files(n: u64, size: u64) -> Vec<FileSpec> {
    (0..n).map(|i| FileSpec::new(i, size)).collect()
}

/// Deterministic-boot homogeneous cloud for scripted-crash tests.
fn steady_config(seed: u64) -> CloudConfig {
    CloudConfig {
        seed,
        homogeneous: true,
        startup_mean_s: 120.0,
        startup_jitter_s: 0.0,
        slow_fraction: 0.0,
        inconsistent_fraction: 0.0,
        slow_segment_fraction: 0.0,
        ..CloudConfig::default()
    }
}

/// The plan executor on a fresh fleet without a log, keeping its
/// recovery report.
fn resilient(
    cloud: &mut Cloud,
    plan: &Plan,
    cfg: &ExecutionConfig,
    retry: &RetryPolicy,
) -> DegradedReport {
    let model = GrepCostModel::default();
    let obs = Obs::default();
    execute_plan_resilient_sourced(cloud, plan, &model, cfg, retry, &mut FreshFleet, &obs).unwrap()
}

fn crash_first_fleet_instance(at: f64) -> FaultPlan {
    FaultPlan::scripted(vec![FaultEvent {
        at,
        instance: Some(0),
        volume: None,
        kind: FaultKind::InstanceCrash,
    }])
}

#[test]
fn happy_path_invariants_across_strategies_and_staging() {
    let m = grep_fit();
    let cases = [
        (Strategy::CapacityDriven, StagingTier::Ebs, 20.0),
        (Strategy::CapacityDriven, StagingTier::Local, 40.0),
        (Strategy::UniformBins, StagingTier::Ebs, 20.0),
        (Strategy::UniformBins, StagingTier::Local, 40.0),
        (
            Strategy::AdjustedDeadline { p_miss: 0.1 },
            StagingTier::Ebs,
            20.0,
        ),
        (
            Strategy::AdjustedDeadline { p_miss: 0.1 },
            StagingTier::Local,
            40.0,
        ),
    ];
    for (i, (strategy, staging, deadline)) in cases.into_iter().enumerate() {
        let files = corpus_files(40, 100_000_000); // 4 GB
        let plan = make_plan(strategy, &files, &m, deadline).unwrap();
        let cfg = ExecutionConfig {
            staging,
            ..ExecutionConfig::default()
        };
        let mut cloud = Cloud::new(CloudConfig::ideal(i as u64));
        let report = execute_plan(&mut cloud, &plan, &GrepCostModel::default(), &cfg).unwrap();
        assert_eq!(report.runs.len(), plan.instance_count(), "case {i}");
        assert_eq!(report.deadline_secs, plan.deadline_secs, "case {i}");
        let max = report.runs.iter().map(|r| r.job_secs).fold(0.0, f64::max);
        assert!((report.makespan_secs - max).abs() < 1e-12, "case {i}");
        let misses = report.runs.iter().filter(|r| !r.met_deadline).count();
        assert_eq!(report.misses, misses, "case {i}");
        assert!(
            (report.cost - report.instance_hours as f64 * 0.085).abs() < 1e-9,
            "case {i}"
        );
        // Every share's bytes are accounted on exactly the planned run.
        for (run, share) in report.runs.iter().zip(&plan.instances) {
            assert_eq!(run.volume, share.volume, "case {i}");
            assert_eq!(run.files, share.files.len(), "case {i}");
        }
    }
}

#[test]
fn provision_error_branches_are_typed_and_printable() {
    let files = corpus_files(10, 1_000_000);
    // Deadline below the model's fixed cost (~1 s intercept).
    let err = make_plan(Strategy::CapacityDriven, &files, &grep_fit(), 1.0e-9).unwrap_err();
    assert!(matches!(
        err,
        ProvisionError::DeadlineBelowFixedCosts { .. }
    ));
    assert!(err.to_string().contains("fixed costs"), "{err}");
    // A flat (zero-slope) model has no inverse at any deadline above its
    // plateau.
    let xs = [1.0e6, 2.0e6, 3.0e6, 4.0e6];
    let ys = [5.0, 5.0, 5.0, 5.0];
    let flat = fit(ModelKind::Affine, &xs, &ys);
    let err = make_plan(Strategy::UniformBins, &files, &flat, 60.0).unwrap_err();
    assert!(
        matches!(
            err,
            ProvisionError::NotInvertible { .. } | ProvisionError::DeadlineBelowFixedCosts { .. }
        ),
        "{err}"
    );
    assert!(!err.to_string().is_empty());
}

#[test]
fn resilient_path_is_identical_to_static_on_a_fault_free_cloud() {
    let m = grep_fit();
    for (seed, staging) in [(1u64, StagingTier::Ebs), (2, StagingTier::Local)] {
        let files = corpus_files(30, 100_000_000);
        let plan = make_plan(Strategy::UniformBins, &files, &m, 20.0).unwrap();
        let cfg = ExecutionConfig {
            staging,
            ..ExecutionConfig::default()
        };
        let static_report = {
            let mut cloud = Cloud::new(CloudConfig::ideal(seed));
            execute_plan(&mut cloud, &plan, &GrepCostModel::default(), &cfg).unwrap()
        };
        let degraded = {
            let mut cloud = Cloud::with_faults(CloudConfig::ideal(seed), &FaultPlan::none());
            resilient(&mut cloud, &plan, &cfg, &RetryPolicy::default())
        };
        assert_eq!(degraded.execution, static_report);
        assert_eq!(degraded.crashes + degraded.preemptions, 0);
        assert_eq!(degraded.transient_retries, 0);
        assert_eq!(degraded.replacements, 0);
        assert_eq!(degraded.lost_bytes, 0);
        assert!(degraded.failed_shares.is_empty());
    }
}

#[test]
fn crashed_share_is_requeued_on_a_replacement_and_completes() {
    let m = grep_fit();
    let files = corpus_files(40, 100_000_000); // 4 GB → a few shares
    let plan = make_plan(Strategy::UniformBins, &files, &m, 20.0).unwrap();
    assert!(plan.instance_count() >= 2);
    // Kill the first fleet instance 5 s after its boot completes (boot is
    // a deterministic 120 s).
    let mut cloud = Cloud::with_faults(steady_config(3), &crash_first_fleet_instance(125.0));
    let report = resilient(
        &mut cloud,
        &plan,
        &ExecutionConfig::default(),
        &RetryPolicy::default(),
    );
    assert_eq!(report.crashes, 1);
    assert_eq!(report.replacements, 1);
    assert_eq!(report.requeued_shares, 1);
    assert!(report.failed_shares.is_empty());
    assert_eq!(report.lost_bytes, 0);
    assert_eq!(report.recovered_bytes, plan.instances[0].volume);
    assert_eq!(report.execution.runs.len(), plan.instance_count());
    // Recovery time counts against the share's deadline clock.
    let clean = {
        let mut cloud = Cloud::new(steady_config(3));
        resilient(
            &mut cloud,
            &plan,
            &ExecutionConfig::default(),
            &RetryPolicy::default(),
        )
    };
    assert!(report.execution.runs[0].job_secs > clean.execution.runs[0].job_secs);
}

#[test]
fn exhausted_replacements_account_the_share_as_lost() {
    let m = grep_fit();
    let files = corpus_files(10, 100_000_000); // 1 GB → one share
    let plan = make_plan(Strategy::UniformBins, &files, &m, 60.0).unwrap();
    assert_eq!(plan.instance_count(), 1);
    let mut cloud = Cloud::with_faults(steady_config(4), &crash_first_fleet_instance(125.0));
    let retry = RetryPolicy {
        max_replacements: 0,
        ..RetryPolicy::default()
    };
    let report = resilient(&mut cloud, &plan, &ExecutionConfig::default(), &retry);
    assert_eq!(report.failed_shares, vec![0]);
    assert_eq!(report.lost_bytes, 1_000_000_000);
    assert_eq!(report.execution.misses, 1);
    assert!(report.execution.runs.is_empty());
    assert!(report.share_files[0].is_empty());
}

#[test]
fn transient_attach_failures_are_absorbed_by_backoff() {
    let m = grep_fit();
    let files = corpus_files(10, 100_000_000);
    let plan = make_plan(Strategy::UniformBins, &files, &m, 60.0).unwrap();
    // Two transient failures on the first fleet volume.
    let plan_faults = FaultPlan::scripted(vec![
        FaultEvent {
            at: 0.0,
            instance: None,
            volume: Some(0),
            kind: FaultKind::EbsAttachFailure,
        },
        FaultEvent {
            at: 0.0,
            instance: None,
            volume: Some(0),
            kind: FaultKind::EbsAttachFailure,
        },
    ]);
    let mut cloud = Cloud::with_faults(steady_config(5), &plan_faults);
    let report = resilient(
        &mut cloud,
        &plan,
        &ExecutionConfig::default(),
        &RetryPolicy::default(),
    );
    assert_eq!(report.transient_retries, 2);
    assert!(report.failed_shares.is_empty());
    assert_eq!(report.crashes + report.preemptions + report.replacements, 0);
}

/// What an executor's report says it recovered from: instances lost and
/// transient retries. `None` when its report does not say.
type Recovered = Option<(usize, usize)>;

/// Every executor's fleet summary under `cfg`, each on its own cloud built
/// from `config` with `faults` injected, labelled by executor, with what
/// it recovered from.
fn every_executor_on(
    config: CloudConfig,
    faults: &FaultPlan,
    cfg: &ExecutionConfig,
) -> Vec<(&'static str, ExecutionReport, Cloud, Recovered)> {
    let m = grep_fit();
    let files = corpus_files(40, 100_000_000);
    let plan = make_plan(Strategy::UniformBins, &files, &m, 60.0).unwrap();
    let model = GrepCostModel::default();
    let cloud = || Cloud::with_faults(config, faults);
    let (mut a, mut b, mut c, mut d) = (cloud(), cloud(), cloud(), cloud());
    let plan_run = execute_plan(&mut a, &plan, &model, cfg).unwrap();
    let resilient_run = resilient(&mut b, &plan, cfg, &RetryPolicy::default());
    let aware = execute_quality_aware(
        &mut c,
        &files,
        &m,
        60.0,
        &model,
        cfg,
        &QualityAwareConfig::default(),
    )
    .unwrap();
    let dynamic =
        execute_dynamic(&mut d, &plan, &model, &m, cfg, &DynamicConfig::default()).unwrap();
    vec![
        ("execute_plan", plan_run, a, None),
        (
            "execute_plan_resilient_sourced",
            resilient_run.execution,
            b,
            Some((
                resilient_run.crashes + resilient_run.preemptions,
                resilient_run.transient_retries,
            )),
        ),
        (
            "execute_quality_aware",
            aware.execution,
            c,
            Some((aware.instance_losses, aware.transient_retries)),
        ),
        (
            "execute_dynamic",
            dynamic.execution,
            d,
            Some((dynamic.instance_losses, dynamic.transient_retries)),
        ),
    ]
}

/// Every executor's fleet summary under `cfg`, each on its own ideal
/// cloud, labelled by executor.
fn every_executor(cfg: &ExecutionConfig) -> Vec<(&'static str, ExecutionReport, Cloud)> {
    every_executor_on(CloudConfig::ideal(6), &FaultPlan::none(), cfg)
        .into_iter()
        .map(|(name, report, cloud, _)| (name, report, cloud))
        .collect()
}

/// Runs every executor on `steady_config(3)` under `faults` and checks
/// that each one returns, processes every byte and reports `recovered`.
fn every_executor_recovers(faults: &FaultPlan, recovered: (usize, usize)) {
    let cfg = ExecutionConfig::default();
    for (name, report, _, counted) in every_executor_on(steady_config(3), faults, &cfg) {
        let bytes: u64 = report.runs.iter().map(|r| r.volume).sum();
        assert_eq!(bytes, 4_000_000_000, "{name}");
        assert!(report.instance_hours >= report.runs.len() as u64, "{name}");
        if let Some(counted) = counted {
            assert_eq!(counted, recovered, "{name}: (instance losses, retries)");
        }
    }
}

#[test]
fn every_executor_recovers_from_a_crashed_instance() {
    every_executor_recovers(&crash_first_fleet_instance(125.0), (1, 0));
}

#[test]
fn every_executor_retries_a_transient_attach_failure() {
    let faults = FaultPlan::scripted(vec![FaultEvent {
        at: 0.0,
        instance: None,
        volume: Some(0),
        kind: FaultKind::EbsAttachFailure,
    }]);
    every_executor_recovers(&faults, (0, 1));
}

#[test]
fn every_executor_bills_at_the_rate_override() {
    let cfg = ExecutionConfig {
        rate_override: Some(0.5),
        ..ExecutionConfig::default()
    };
    for (name, report, _) in every_executor(&cfg) {
        assert!(!report.runs.is_empty(), "{name}");
        assert!(
            (report.cost - report.instance_hours as f64 * 0.5).abs() < 1e-9,
            "{name}: cost {} for {} hours",
            report.cost,
            report.instance_hours
        );
    }
}

#[test]
fn every_executor_launches_and_bills_through_the_family() {
    let family = InstanceFamily::low_power();
    let cfg = ExecutionConfig {
        family: Some(family),
        ..ExecutionConfig::default()
    };
    for (name, report, cloud) in every_executor(&cfg) {
        assert!(!report.runs.is_empty(), "{name}");
        assert!(
            (report.cost - report.instance_hours as f64 * family.on_demand_rate).abs() < 1e-9,
            "{name}: cost {} for {} hours",
            report.cost,
            report.instance_hours
        );
        // Every instance the executor launched bills at the family rate.
        for bill in cloud.ledger().bills() {
            assert!(
                (bill.cost - bill.billed_hours as f64 * family.on_demand_rate).abs() < 1e-9,
                "{name}: {bill:?}"
            );
        }
    }
}

/// Regression: `execute_dynamic` billed a share as one span however many
/// laggards it swapped out, so no replacement instance was ever billed.
/// Every instance now bills its own span, as the cloud's ledger does.
#[test]
fn every_swapped_instance_is_billed() {
    let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e8).collect();
    let ys: Vec<f64> = xs.iter().map(|&x| 1.0 + x / 75.0e6).collect();
    let m = fit(ModelKind::Affine, &xs, &ys);
    let files = corpus_files(60, 100_000_000); // 6 GB
    let plan = make_plan(Strategy::UniformBins, &files, &m, 40.0).unwrap();
    let dyn_cfg = DynamicConfig {
        batches: 6,
        slowdown_threshold: 1.3,
        max_replacements: 4,
    };
    let mut swapped = 0;
    for seed in 0..50 {
        // Nearly half the fleet is slow; clean volumes keep placement
        // spikes from masquerading as slow instances.
        let mut cloud = Cloud::new(CloudConfig {
            seed,
            slow_fraction: 0.45,
            inconsistent_fraction: 0.0,
            startup_mean_s: 5.0,
            startup_jitter_s: 0.0,
            slow_segment_fraction: 0.0,
            ..CloudConfig::default()
        });
        let model = GrepCostModel::default();
        let cfg = ExecutionConfig::default();
        let report = execute_dynamic(&mut cloud, &plan, &model, &m, &cfg, &dyn_cfg).unwrap();
        swapped += report.replacements;
        let used = (plan.instance_count() + report.replacements) as u64;
        assert!(
            report.execution.instance_hours >= used,
            "seed {seed}: {} hours for {used} instances",
            report.execution.instance_hours
        );
        let ledger = cloud.ledger().total_instance_hours();
        assert_eq!(report.execution.instance_hours, ledger, "seed {seed}");
    }
    assert!(swapped > 0, "the fleet must force some swaps");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replanning after a single crash never costs more than one extra
    /// instance-hour: the dead attempt's partial hour plus the
    /// replacement's hour can exceed the clean bill by at most one for
    /// sub-hour bins.
    #[test]
    fn replanning_after_a_crash_adds_at_most_one_instance_hour(
        seed in 0u64..64,
        crash_offset in 0.0f64..400.0,
    ) {
        let m = grep_fit();
        let files = corpus_files(40, 100_000_000);
        let plan = make_plan(Strategy::UniformBins, &files, &m, 20.0).unwrap();
        let cfg = ExecutionConfig::default();
        let retry = RetryPolicy::default();
        let clean = {
            let mut cloud = Cloud::new(steady_config(seed));
            resilient(&mut cloud, &plan, &cfg, &retry)
        };
        let faulty = {
            let mut cloud = Cloud::with_faults(
                steady_config(seed),
                &crash_first_fleet_instance(crash_offset),
            );
            resilient(&mut cloud, &plan, &cfg, &retry)
        };
        prop_assert!(faulty.crashes <= 1);
        prop_assert!(faulty.failed_shares.is_empty());
        prop_assert!(
            faulty.execution.instance_hours <= clean.execution.instance_hours + 1,
            "clean {} faulty {}",
            clean.execution.instance_hours,
            faulty.execution.instance_hours
        );
    }

    /// Under any generated fault schedule the two §7 executors run to a
    /// report in which every share either completed whole or counts as a
    /// miss, through laggard swaps, crashes after swaps and attach retries
    /// alike.
    #[test]
    fn section_7_executors_account_every_share_under_generated_faults(seed in 0u64..256) {
        let faults = FaultPlan::generate(seed, &FaultConfig {
            horizon_secs: 400.0,
            crash_prob: 0.2,
            preemption_prob: 0.05,
            slowdown_prob: 0.2,
            slowdown_factor: (1.5, 3.0),
            attach_failure_prob: 0.2,
            ..FaultConfig::default()
        });
        let config = steady_config(seed);
        let m = grep_fit();
        let files = corpus_files(40, 100_000_000);
        let plan = make_plan(Strategy::UniformBins, &files, &m, 30.0).unwrap();
        let model = GrepCostModel::default();
        let cfg = ExecutionConfig::default();
        let aware = execute_quality_aware(
            &mut Cloud::with_faults(config, &faults),
            &files,
            &m,
            30.0,
            &model,
            &cfg,
            &QualityAwareConfig::default(),
        )
        .unwrap()
        .execution;
        let dyn_cfg = DynamicConfig {
            batches: 6,
            slowdown_threshold: 1.3,
            max_replacements: 4,
        };
        let dynamic = execute_dynamic(
            &mut Cloud::with_faults(config, &faults),
            &plan,
            &model,
            &m,
            &cfg,
            &dyn_cfg,
        )
        .unwrap()
        .execution;
        let unfinished =
            |r: &ExecutionReport| r.misses - r.runs.iter().filter(|r| !r.met_deadline).count();
        for report in [&aware, &dynamic] {
            let covered: u64 = report.runs.iter().map(|r| r.volume).sum();
            prop_assert!(covered == 4_000_000_000 || unfinished(report) > 0);
            prop_assert!(covered <= 4_000_000_000);
            prop_assert!(report.instance_hours >= report.runs.len() as u64);
        }
        prop_assert_eq!(dynamic.runs.len() + unfinished(&dynamic), plan.instance_count());
    }
}
