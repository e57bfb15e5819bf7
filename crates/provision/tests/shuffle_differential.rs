//! Differential harness for the distributed aggregation pipeline: the
//! shuffle's reduce output must equal the sequential in-memory oracle
//! bit-for-bit on every sharing backend, and the whole run — plan,
//! report, NDJSON event log — must be byte-identical across `Parallelism`
//! settings and replays, including under a non-empty `FaultPlan`.

use binpack::Parallelism;
use corpus::FileSpec;
use ec2sim::{Cloud, CloudConfig, CloudError, FaultEvent, FaultKind, FaultPlan, SharingBackend};
use obs::Obs;
use perfmodel::{fit as fit_model, Fit, ModelKind};
use provision::{
    execute_aggregation_observed, execute_shuffle_observed, make_plan, ExecutionConfig,
    ShuffleConfig, ShuffleError, ShuffleReport, Strategy,
};
use textapps::aggregate::{oracle, render};
use textapps::AggKind;

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// The strategy-test compute model: ~1 s per MB with ±2 % wobble.
fn compute_fit() -> Fit {
    let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e6).collect();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(k, &x)| 1.0e-6 * x * (1.0 + 0.02 * if k % 2 == 0 { 1.0 } else { -1.0 }))
        .collect();
    fit_model(ModelKind::Affine, &xs, &ys)
}

fn corpus(n: u64) -> Vec<FileSpec> {
    (0..n).map(|i| FileSpec::new(i, 2_000 + 137 * i)).collect()
}

fn scripted_s3_faults() -> FaultPlan {
    FaultPlan::scripted(vec![
        FaultEvent {
            at: 0.0,
            instance: None,
            volume: None,
            kind: FaultKind::S3TransientPut,
        },
        FaultEvent {
            at: 0.0,
            instance: None,
            volume: None,
            kind: FaultKind::S3TransientGet,
        },
    ])
}

/// One full forced-backend run under a given worker count: returns the
/// canonical reduce output and the NDJSON event log.
fn run_forced(
    backend: SharingBackend,
    workers: usize,
    kind: AggKind,
    faults: &FaultPlan,
) -> (Vec<u8>, String) {
    Parallelism::Rayon(workers).install(|| {
        let files = corpus(9);
        let fit = compute_fit();
        let cfg = ShuffleConfig {
            kind,
            ..ShuffleConfig::default()
        };
        let plan = make_plan(Strategy::UniformBins, &files, &fit, 12.0).unwrap();
        let obs = Obs::recording(cfg.seed);
        let mut cloud = Cloud::with_faults(CloudConfig::default(), faults);
        let report = execute_shuffle_observed(&mut cloud, &cfg, &plan, backend, &obs).unwrap();
        (report.output(), obs.to_ndjson())
    })
}

/// Every backend, every worker count: the reduce output equals the
/// sequential oracle bit-for-bit, and the NDJSON log never varies with
/// the worker count (the log is a pure function of seed + config).
#[test]
fn all_backends_match_the_sequential_oracle_across_worker_counts() {
    let files = corpus(9);
    for kind in [AggKind::TermCount, AggKind::Dedup] {
        let expected = render(&oracle(kind, ShuffleConfig::default().corpus_seed, &files));
        for backend in SharingBackend::ALL {
            let (base_out, base_log) = run_forced(backend, WORKERS[0], kind, &FaultPlan::none());
            assert_eq!(
                base_out, expected,
                "{backend:?}/{kind:?} output must equal the sequential oracle"
            );
            assert!(
                !base_log.is_empty(),
                "the observed run must emit an event log"
            );
            for &w in &WORKERS[1..] {
                let (out, log) = run_forced(backend, w, kind, &FaultPlan::none());
                assert_eq!(out, expected, "{backend:?}/{kind:?} with {w} workers");
                assert_eq!(
                    log, base_log,
                    "{backend:?}/{kind:?} NDJSON log must be byte-identical at {w} workers"
                );
            }
        }
    }
}

/// Replaying the same seed and config under an armed (non-empty) fault
/// plan reproduces the identical log and output at every worker count —
/// retries are scheduled on the simulated clock, not the host's.
#[test]
fn fault_plan_replay_is_byte_identical_across_worker_counts() {
    let faults = scripted_s3_faults();
    let (base_out, base_log) =
        run_forced(SharingBackend::S3, WORKERS[0], AggKind::TermCount, &faults);
    let files = corpus(9);
    let expected = render(&oracle(
        AggKind::TermCount,
        ShuffleConfig::default().corpus_seed,
        &files,
    ));
    assert_eq!(base_out, expected, "faults must not corrupt the output");
    assert!(
        base_log.contains("transient_retries"),
        "the injected transients must be visible in the log:\n{base_log}"
    );
    for &w in &WORKERS[1..] {
        let (out, log) = run_forced(SharingBackend::S3, w, AggKind::TermCount, &faults);
        assert_eq!(out, base_out, "fault replay output at {w} workers");
        assert_eq!(log, base_log, "fault replay NDJSON at {w} workers");
    }
}

/// The planner-chosen end-to-end pipeline is also invariant: same seed,
/// same config, any worker count → identical report (plan, backend choice,
/// costs, outputs) and identical event log.
#[test]
fn planned_pipeline_is_deterministic_across_worker_counts() {
    let run = |workers: usize| {
        Parallelism::Rayon(workers).install(|| {
            let files = corpus(11);
            let fit = compute_fit();
            let cfg = ShuffleConfig::default();
            let obs = Obs::recording(cfg.seed);
            let mut cloud = Cloud::new(CloudConfig::default());
            let agg =
                execute_aggregation_observed(&mut cloud, &cfg, &files, &fit, 45.0, &obs).unwrap();
            (
                serde_json::to_string(&agg.plan).unwrap(),
                agg.exec.output(),
                agg.exec.total_cost().to_bits(),
                obs.to_ndjson(),
            )
        })
    };
    let base = run(WORKERS[0]);
    for &w in &WORKERS[1..] {
        assert_eq!(run(w), base, "planned pipeline differs at {w} workers");
    }
}

/// One forced-S3 term-count run of `files` under `faults`, planned with
/// a deadline tight enough to split the map phase over several shares.
fn run_map_faults(
    files: &[FileSpec],
    faults: &FaultPlan,
) -> (Result<ShuffleReport, ShuffleError>, String) {
    let cfg = ShuffleConfig::default();
    let plan = make_plan(Strategy::UniformBins, files, &compute_fit(), 0.03).unwrap();
    let obs = Obs::recording(cfg.seed);
    let mut cloud = Cloud::with_faults(CloudConfig::default(), faults);
    let report = execute_shuffle_observed(&mut cloud, &cfg, &plan, SharingBackend::S3, &obs);
    (report, obs.to_ndjson())
}

fn fault(instance: Option<u64>, volume: Option<u64>, kind: FaultKind) -> FaultEvent {
    FaultEvent {
        at: 0.0,
        instance,
        volume,
        kind,
    }
}

/// An aggregation cannot drop a share: when every instance the first map
/// share is offered dies, the run fails on that share once its
/// replacement budget is spent.
#[test]
fn crashing_every_map_ordinal_exhausts_the_first_share() {
    let faults = FaultPlan::scripted(
        (0..32)
            .map(|i| fault(Some(i), None, FaultKind::InstanceCrash))
            .collect(),
    );
    let (report, _) = run_map_faults(&corpus(9), &faults);
    assert_eq!(
        report.unwrap_err(),
        ShuffleError::SharesExhausted { share: 0 }
    );
}

/// EBS attach transients beyond the retry budget abort the run with the
/// transient error itself.
#[test]
fn attach_transients_beyond_the_retry_budget_surface_the_cloud_error() {
    let attempts = ShuffleConfig::default().retry.max_attempts;
    let faults = FaultPlan::scripted(
        (0..attempts)
            .map(|_| fault(None, Some(0), FaultKind::EbsAttachFailure))
            .collect(),
    );
    let (report, _) = run_map_faults(&corpus(9), &faults);
    assert!(
        matches!(
            report,
            Err(ShuffleError::Cloud(CloudError::AttachFailed(v))) if v.0 == 0
        ),
        "{report:?}"
    );
}

/// One map crash recovered on a replacement, one absorbed attach
/// transient and one absorbed S3 transient: the recovery accounting and
/// the whole event log are pinned byte for byte, so the backoff draws of
/// the map phase and of the S3 transfers keep their order.
#[test]
fn one_map_crash_recovers_with_pinned_accounting_and_log() {
    let files = corpus(9);
    let faults = FaultPlan::scripted(vec![
        fault(Some(0), None, FaultKind::InstanceCrash),
        fault(None, Some(1), FaultKind::EbsAttachFailure),
        fault(None, None, FaultKind::S3TransientPut),
    ]);
    let (report, log) = run_map_faults(&files, &faults);
    let report = report.unwrap();
    assert_eq!(report.map_shares, 4);
    assert_eq!(report.crashes, 1);
    assert_eq!(report.preemptions, 0);
    assert_eq!(report.replacements, 1);
    assert_eq!(report.transient_retries, 2);
    // The crash fires at the first attach, so the doomed attempt bills
    // nothing: one hour per map slot.
    assert_eq!(report.instance_hours, 4);
    let expected = render(&oracle(
        AggKind::TermCount,
        ShuffleConfig::default().corpus_seed,
        &files,
    ));
    assert_eq!(report.output(), expected);
    assert_eq!(log, include_str!("fixtures/shuffle_map_crash.ndjson"));
}

/// The map/reduce fleet bills at the configured hourly rate, like every
/// plan executor.
#[test]
fn fleet_bills_at_the_configured_hourly_rate() {
    let cfg = ShuffleConfig {
        exec: ExecutionConfig {
            rate_override: Some(0.5),
            ..ExecutionConfig::default()
        },
        ..ShuffleConfig::default()
    };
    let plan = make_plan(Strategy::UniformBins, &corpus(9), &compute_fit(), 12.0).unwrap();
    let mut cloud = Cloud::new(CloudConfig::default());
    let report =
        execute_shuffle_observed(&mut cloud, &cfg, &plan, SharingBackend::S3, &Obs::default())
            .unwrap();
    assert!(report.instance_hours > 0);
    assert_eq!(report.compute_cost, report.instance_hours as f64 * 0.5);
}
