//! Golden dispatch fixture: pins the exact dispatch order of `run_trace`.
//!
//! The same-binary determinism tests compare two runs of one build, so a
//! change to the order in which the dispatcher picks jobs passes them as
//! long as it is deterministic. This test instead compares against digests
//! committed in `tests/fixtures/dispatch_golden.json`: any change to which
//! job runs when, on which family, with how many deferrals, shows up as a
//! different log or report digest.
//!
//! Eight cases: catalog off/on × fault-free/faulty × two seeds, plus two
//! catalog-on, fault-free cases with fleet screening on (each instance is
//! judged against its own family's bonnie bar). Each is a 160-job
//! open-loop trace (mean gap 120 s) that backs the queue up, so jobs are
//! deferred both on tenant quota and on pool capacity.
//!
//! Regenerate (only when a dispatch change is intended) with
//! `UPDATE_GOLDEN=1 cargo test -p sched --test dispatch_golden`.

use corpus::hash::fnv1a;
use ec2sim::{FaultConfig, InstanceFamily};
use obs::Obs;
use sched::{run_trace, DeferReason, SchedConfig, TraceConfig};
use serde::Serialize;

const FIXTURE: &str = include_str!("fixtures/dispatch_golden.json");
const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/dispatch_golden.json"
);

const SEEDS: [u64; 2] = [7, 20_101];
const JOBS: usize = 160;
const MEAN_GAP_S: f64 = 120.0;

/// A fault schedule dense enough to crash, preempt, delay and fail
/// attaches across the whole trace.
fn fault_schedule() -> FaultConfig {
    FaultConfig {
        horizon_secs: 20_000.0,
        first_instance: 0,
        instances: 256,
        first_volume: 0,
        volumes: 256,
        crash_prob: 0.25,
        preemption_prob: 0.1,
        boot_delay_prob: 0.3,
        attach_failure_prob: 0.2,
        ..FaultConfig::default()
    }
}

/// What one case pins.
#[derive(Debug, Serialize)]
struct Golden {
    case: String,
    seed: u64,
    catalog: bool,
    faults: bool,
    jobs: usize,
    log_fnv1a64: String,
    log_bytes: usize,
    report_fnv1a64: String,
    deferrals: u64,
    last_defer_tenant_busy: usize,
    last_defer_pool_saturated: usize,
    missed: usize,
    rejected: usize,
    total_cost: f64,
}

fn run_case(seed: u64, catalog: bool, faults: bool, screen: bool) -> Golden {
    let mut cfg = SchedConfig {
        catalog: catalog.then(InstanceFamily::catalog),
        faults: faults.then(fault_schedule),
        obs: Obs::recording(seed),
        ..SchedConfig::default()
    };
    cfg.cloud.seed = seed;
    cfg.exec.screen = screen;
    let trace = TraceConfig {
        jobs: JOBS,
        seed,
        mean_interarrival_secs: MEAN_GAP_S,
        ..TraceConfig::default()
    }
    .generate();
    let report = run_trace(&cfg, &trace).expect("scheduling run");
    let log = cfg.obs.to_ndjson();
    let report_json = serde_json::to_string(&report).expect("report json");
    let last = |pick: fn(&DeferReason) -> bool| {
        report
            .jobs
            .iter()
            .filter(|j| j.last_defer.as_ref().is_some_and(pick))
            .count()
    };
    Golden {
        case: format!(
            "seed{seed}-catalog_{}-faults_{}{}",
            if catalog { "on" } else { "off" },
            if faults { "on" } else { "off" },
            if screen { "-screen_on" } else { "" }
        ),
        seed,
        catalog,
        faults,
        jobs: JOBS,
        log_fnv1a64: format!("{:016x}", fnv1a(log.as_bytes())),
        log_bytes: log.len(),
        report_fnv1a64: format!("{:016x}", fnv1a(report_json.as_bytes())),
        deferrals: report.jobs.iter().map(|j| j.deferrals).sum(),
        last_defer_tenant_busy: last(|r| matches!(r, DeferReason::TenantBusy { .. })),
        last_defer_pool_saturated: last(|r| matches!(r, DeferReason::PoolSaturated { .. })),
        missed: report.missed,
        rejected: report.rejected,
        total_cost: report.total_cost,
    }
}

fn all_cases() -> Vec<Golden> {
    let mut cases = Vec::new();
    for catalog in [false, true] {
        for faults in [false, true] {
            for seed in SEEDS {
                cases.push(run_case(seed, catalog, faults, false));
            }
        }
    }
    for seed in SEEDS {
        cases.push(run_case(seed, true, false, true));
    }
    cases
}

#[test]
fn dispatch_matches_committed_golden_fixture() {
    let cases = all_cases();
    // The fixture only pins the queue scan if the queue backs up enough
    // to defer on both reasons.
    assert!(cases.iter().any(|c| c.last_defer_tenant_busy > 0));
    assert!(cases.iter().any(|c| c.last_defer_pool_saturated > 0));
    let rendered = serde_json::to_string_pretty(&cases).expect("fixture json") + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE_PATH, &rendered).expect("write fixture");
        return;
    }
    for (got, want) in rendered.lines().zip(FIXTURE.lines()) {
        assert_eq!(got, want, "dispatch diverged from the golden fixture");
    }
    assert_eq!(rendered.lines().count(), FIXTURE.lines().count());
}
