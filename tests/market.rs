//! Fleet-market integration: the three headline guarantees of the
//! `market` crate, end to end through the simulated cloud.
//!
//! 1. **Determinism** — the same seed yields a byte-identical spot price
//!    path, a byte-identical portfolio plan, and a byte-identical NDJSON
//!    event log across independent plan + execute runs.
//! 2. **Differential** — `OnDemandOnly` on a single-family catalog with a
//!    unit perf multiplier reproduces the classic §5.2 planner's fleet
//!    bit for bit; the market layer is a strict superset, not a fork.
//! 3. **Chaos calibration** — under the scripted correlated spot
//!    reclaims implied by the plan's own price paths, the aggregate user
//!    deadline miss rate over a seed sweep stays within the configured
//!    target, and the sweep actually suffers preemptions (the guarantee
//!    is not vacuous).
//! 4. **Flat started-hour billing** — every spot line, run under its own
//!    reclaims, bills whole started hours at a rate no higher than its bid.
//!
//! The sweep honours `CHAOS_SEED` so CI can walk a seed matrix without
//! recompiling, mirroring `tests/chaos.rs`.

use corpus::FileSpec;
use ec2sim::{
    billed_hours, AvailabilityZone, Cloud, CloudConfig, DataLocation, InstanceFamily, InstanceType,
    NoiseModel,
};
use market::{
    execute_portfolio, plan_market, plan_market_observed, reclaim_fault_plan, MarketConfig,
    MarketStrategy, Tier,
};
use obs::Obs;
use perfmodel::{fit, Fit, ModelKind};
use provision::{make_plan, ExecutionConfig, RetryPolicy, StagingTier, Strategy};
use textapps::GrepCostModel;

/// Aggregate miss-rate target for the correlated-reclaim sweep. The
/// planner sizes spot shares inside the bid-eligible window of the same
/// deterministic price path that later drives the reclaims, so most
/// crossings land after the fleet has drained; the residual misses come
/// from crossings late in a long eligible window, where a from-scratch
/// requeue cannot finish by the user deadline.
const MISS_TARGET: f64 = 0.20;

/// Base seed for the trial sweep; CI sets `CHAOS_SEED` to walk a matrix.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Noisy homogeneous cloud: identical hardware so the fitted model is
/// exact, full measurement noise so deadlines can genuinely miss.
fn trial_cloud(seed: u64) -> CloudConfig {
    CloudConfig {
        seed,
        homogeneous: true,
        noise: NoiseModel::default(),
        ..CloudConfig::default()
    }
}

/// Fit the performance model by probing the simulated cloud itself, as
/// `tests/chaos.rs` does — the residuals feeding the §5.2 adjustment are
/// real observation noise.
fn probe_fit() -> Fit {
    let mut cloud = Cloud::new(trial_cloud(0x5EED));
    let inst = cloud
        .launch(InstanceType::Small, AvailabilityZone::us_east_1a())
        .unwrap();
    cloud.wait_until_running(inst).unwrap();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for step in 1..=12u64 {
        let bytes = step * 150_000_000;
        for _ in 0..4 {
            let r = cloud
                .submit_job(
                    inst,
                    &GrepCostModel::default(),
                    &[FileSpec::new(0, bytes)],
                    DataLocation::Local,
                    0.0,
                )
                .unwrap();
            xs.push(bytes as f64);
            ys.push(r.observed_secs);
        }
    }
    fit(ModelKind::Affine, &xs, &ys)
}

fn corpus_files(n: u64, size: u64) -> Vec<FileSpec> {
    (0..n).map(|i| FileSpec::new(i, size)).collect()
}

fn exec_cfg() -> ExecutionConfig {
    ExecutionConfig {
        staging: StagingTier::Local,
        stage_in_secs: 0.0,
        ..ExecutionConfig::default()
    }
}

/// Same seed ⇒ byte-identical price path, plan, and NDJSON log across
/// two fully independent plan + execute runs.
#[test]
fn same_seed_market_run_is_byte_identical() {
    let f = probe_fit();
    let files = corpus_files(120, 100_000_000);
    let cfg = MarketConfig {
        seed: 41,
        ..MarketConfig::default()
    };
    let deadline = 40.0;

    let run = || {
        let obs = Obs::recording(9);
        let pplan = plan_market_observed(&files, &f, deadline, &cfg, &obs).unwrap();
        let faults = reclaim_fault_plan(&pplan, &cfg);
        let mut cloud = Cloud::with_faults(trial_cloud(3), &faults);
        let out = execute_portfolio(
            &mut cloud,
            &pplan,
            &GrepCostModel::default(),
            &exec_cfg(),
            &RetryPolicy::default(),
            &obs,
        )
        .unwrap();
        (pplan, out, obs.to_ndjson())
    };

    let (plan_a, out_a, log_a) = run();
    let (plan_b, out_b, log_b) = run();
    assert_eq!(plan_a, plan_b, "portfolio plans diverged under one seed");
    assert_eq!(out_a, out_b, "executions diverged under one seed");
    assert_eq!(log_a, log_b, "NDJSON logs diverged under one seed");
    assert!(log_a.contains("\"Market\""), "log carries market events");

    // The price path itself is bitwise stable, family by family.
    for fam in &cfg.catalog {
        let pa = cfg.path_for(fam, deadline);
        let pb = cfg.path_for(fam, deadline);
        let bits_a: Vec<u64> = pa.prices().iter().map(|p| p.to_bits()).collect();
        let bits_b: Vec<u64> = pb.prices().iter().map(|p| p.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "price path of {:?} not bit-stable", fam.id);
    }
}

/// `OnDemandOnly` over a catalog of just the standard family (unit perf
/// multiplier, list price) must reproduce the classic §5.2 planner's
/// fleet bit for bit — same shares, same predicted times, same volume.
#[test]
fn single_family_on_demand_matches_classic_planner() {
    let f = probe_fit();
    let files = corpus_files(90, 120_000_000);
    let cfg = MarketConfig {
        catalog: vec![InstanceFamily::standard()],
        strategy: MarketStrategy::OnDemandOnly,
        ..MarketConfig::default()
    };
    for deadline in [20.0, 45.0, 120.0] {
        let pplan = plan_market(&files, &f, deadline, &cfg).unwrap();
        let classic = make_plan(
            Strategy::AdjustedDeadline { p_miss: cfg.p_miss },
            &files,
            &f,
            deadline,
        )
        .unwrap();
        assert_eq!(pplan.lines.len(), 1);
        assert_eq!(
            pplan.lines[0].plan, classic,
            "market fleet diverged from the classic planner at deadline {deadline}"
        );
        let rate = InstanceFamily::standard().on_demand_rate;
        assert!((pplan.lines[0].hourly_rate - rate).abs() < 1e-15);
    }
}

/// The flat started-hour rule on the spot tier. Under its own scripted
/// reclaims, across seeds and bid levels, every spot line pays at most its
/// bid per hour, its bill is exactly billed hours × its rate, and every
/// instance that ran (finished or reclaimed) bills at least one hour.
#[test]
fn spot_lines_bill_started_hours_at_or_below_the_bid() {
    let f = probe_fit();
    let files = corpus_files(24, 10_000_000_000);
    let deadline = 4.0 * 3_600.0;
    let mut preemptions = 0;
    for seed in 0..4u64 {
        for bid_factor in [0.9, 1.0, 1.3, 1.6] {
            let cfg = MarketConfig {
                catalog: vec![InstanceFamily::standard()],
                strategy: MarketStrategy::SpotOnly,
                bid_factor,
                seed,
                ..MarketConfig::default()
            };
            let Ok(pplan) = plan_market(&files, &f, deadline, &cfg) else {
                continue;
            };
            let faults = reclaim_fault_plan(&pplan, &cfg);
            let mut cloud = Cloud::with_faults(trial_cloud(seed), &faults);
            let out = execute_portfolio(
                &mut cloud,
                &pplan,
                &GrepCostModel::default(),
                &exec_cfg(),
                &RetryPolicy::default(),
                &Obs::default(),
            )
            .unwrap();
            preemptions += out.preemptions;
            let bid = cfg.bid_for(&cfg.catalog[0]);
            for (line, report) in pplan.lines.iter().zip(&out.reports) {
                assert_eq!(line.tier, Tier::Spot { bid });
                let hours = report.execution.instance_hours;
                assert!(
                    line.hourly_rate <= bid,
                    "rate {} > bid {bid}",
                    line.hourly_rate
                );
                assert_eq!(report.execution.cost, hours as f64 * line.hourly_rate);
                assert!(report.execution.cost <= bid * hours as f64);
                assert!(hours >= report.execution.runs.len() as u64);
            }
            for bill in cloud.ledger().bills() {
                assert_eq!(bill.billed_hours, billed_hours(bill.running_seconds));
                assert!(bill.running_seconds <= 0.0 || bill.billed_hours >= 1);
                assert!(bill.cost <= bid * bill.billed_hours as f64, "{bill:?}");
            }
        }
    }
    assert!(preemptions > 0, "no spot line was reclaimed");
}

/// Correlated whole-family spot reclaims, scripted from the plan's own
/// price paths, keep the aggregate user-deadline miss rate within the
/// configured target over a seed sweep — and the sweep does get hit.
#[test]
fn correlated_reclaims_keep_miss_rate_within_target() {
    let f = probe_fit();
    // Multi-hour shares on the spot tier: enough volume that the fleet
    // is still running when the price path crosses the bid.
    let files = corpus_files(35, 100_000_000_000);
    let deadline = 7_200.0;
    let model = GrepCostModel::default();
    let retry = RetryPolicy::default();

    let base = chaos_seed();
    let (mut shares, mut misses) = (0usize, 0usize);
    let mut preemptions = 0usize;
    let mut spot_planned = 0usize;
    for k in 0..12u64 {
        let seed = base * 1_000 + k;
        let cfg = MarketConfig {
            catalog: vec![InstanceFamily::standard()],
            strategy: MarketStrategy::Portfolio,
            seed,
            ..MarketConfig::default()
        };
        let pplan = plan_market(&files, &f, deadline, &cfg).unwrap();
        spot_planned += pplan.spot_instances();
        let faults = reclaim_fault_plan(&pplan, &cfg);
        let mut cloud = Cloud::with_faults(trial_cloud(seed), &faults);
        let out = execute_portfolio(
            &mut cloud,
            &pplan,
            &model,
            &exec_cfg(),
            &retry,
            &Obs::default(),
        )
        .unwrap();
        shares += out.shares;
        misses += out.misses;
        preemptions += out.preemptions;
    }

    assert!(spot_planned > 0, "sweep never bought spot capacity");
    assert!(
        preemptions > 0,
        "sweep suffered no reclaims — the calibration is vacuous"
    );
    let rate = misses as f64 / shares as f64;
    assert!(
        rate <= MISS_TARGET,
        "aggregate miss rate {rate:.3} over {shares} shares exceeds {MISS_TARGET}"
    );
}
