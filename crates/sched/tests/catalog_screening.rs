//! Fleet screening with the instance-family catalog on.
//!
//! Dispatch picks the low-power family whenever its plan fits the pool,
//! and low-power instances read at about half the standard bandwidth by
//! design. Screening must judge each candidate against its own family's
//! bar; an absolute 60 MB/s bar rejects every low-power candidate and used
//! to abort the whole trace.

use ec2sim::InstanceFamily;
use sched::{run_trace, SchedConfig, TraceConfig};

#[test]
fn catalog_traces_with_fleet_screening_run_to_completion() {
    for seed in 1..=10 {
        let mut cfg = SchedConfig {
            catalog: Some(InstanceFamily::catalog()),
            ..SchedConfig::default()
        };
        cfg.cloud.seed = seed;
        cfg.exec.screen = true;
        let trace = TraceConfig {
            jobs: 8,
            seed,
            ..TraceConfig::default()
        }
        .generate();
        let report = run_trace(&cfg, &trace)
            .unwrap_or_else(|e| panic!("seed {seed}: screened catalog trace failed: {e:?}"));
        assert_eq!(report.jobs.len(), 8, "seed {seed}");
        assert_eq!(report.completed + report.rejected, 8, "seed {seed}");
        assert!(report.completed > 0, "seed {seed}: nothing ran");
    }
}
