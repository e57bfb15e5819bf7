//! Spot instances vs on-demand (§1.1): "this is advantageous when time is
//! less important of a consideration than cost". Plan ~20 instance-hours
//! of grep on-demand, then sweep the spot bid on the seeded market and run
//! every plan under the reclaims its own price path scripts.

use corpus::FileSpec;
use ec2sim::{Cloud, CloudConfig, InstanceFamily};
use market::{execute_portfolio, plan_market, reclaim_fault_plan, MarketConfig, MarketStrategy};
use obs::Obs;
use perfmodel::{fit, ModelKind};
use provision::{ExecutionConfig, RetryPolicy, StagingTier};
use textapps::GrepCostModel;

fn main() {
    // ~75 MB/s grep with a 1 s fixed cost and ±1 % measurement wobble.
    let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e8).collect();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(k, &x)| 1.0 + x / 75.0e6 * (1.0 + 0.01 * if k % 2 == 0 { 1.0 } else { -1.0 }))
        .collect();
    let model_fit = fit(ModelKind::Affine, &xs, &ys);

    // 2,700 × 2 GB: about 20 h of work on one instance.
    let files: Vec<FileSpec> = (0..2_700)
        .map(|i| FileSpec::new(i, 2_000_000_000))
        .collect();
    let base = MarketConfig {
        catalog: vec![InstanceFamily::standard()],
        seed: 2010,
        ..MarketConfig::default()
    };
    let exec_cfg = ExecutionConfig {
        staging: StagingTier::Local,
        stage_in_secs: 0.0,
        ..ExecutionConfig::default()
    };

    for deadline_h in [3.0, 6.0, 24.0] {
        println!("\ndeadline {deadline_h} h:");
        println!(
            "      strategy  bid×   inst rate $/h expected $  actual $   hours  makespan(h) \
             preemptions misses"
        );
        // `None` is the on-demand baseline; `Some(b)` bids b× the spot mean.
        for bid in [None, Some(0.5), Some(0.9), Some(1.0), Some(1.3), Some(1.6)] {
            let strategy = bid.map_or(MarketStrategy::OnDemandOnly, |_| MarketStrategy::SpotOnly);
            let cfg = MarketConfig {
                strategy,
                bid_factor: bid.unwrap_or(base.bid_factor),
                ..base.clone()
            };
            let bid = bid.map_or("-".to_string(), |b| format!("{b:.1}"));
            let pplan = match plan_market(&files, &model_fit, deadline_h * 3600.0, &cfg) {
                Ok(p) => p,
                Err(reject) => {
                    println!("{:>14} {bid:>5}  rejected: {reject:?}", strategy.label());
                    continue;
                }
            };
            let faults = reclaim_fault_plan(&pplan, &cfg);
            let mut cloud = Cloud::with_faults(CloudConfig::ideal(cfg.seed), &faults);
            let out = execute_portfolio(
                &mut cloud,
                &pplan,
                &GrepCostModel::default(),
                &exec_cfg,
                &RetryPolicy::default(),
                &Obs::default(),
            )
            .expect("the simulated cloud accepts the fleet");
            println!(
                "{:>14} {bid:>5} {:>6} {:>8.4} {:>10.3} {:>9.3} {:>7} {:>12.2} {:>11} {:>6}",
                strategy.label(),
                pplan.instance_count(),
                pplan.lines[0].hourly_rate,
                pplan.expected_cost,
                out.cost,
                out.billed_hours,
                out.makespan_secs / 3600.0,
                out.preemptions,
                out.misses
            );
        }
    }
    println!(
        "\ntakeaway: bids below the market mean cannot field the fleet they need, or are \
         reclaimed mid-run\nand miss; higher bids cost a third to a half of on-demand, but \
         a reclaim can still cost a share\nits deadline — why the paper sticks to \
         on-demand when a deadline must be met."
    );
}
