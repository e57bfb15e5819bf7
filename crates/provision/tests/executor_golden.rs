//! Golden executor fixture: pins what the paper's two §7 executors do on
//! fault-free clouds.
//!
//! `tests/fixtures/executor_golden.json` records, for
//! `execute_quality_aware` (EBS and local staging) and `execute_dynamic`
//! over 20 seeds at each of three `slow_fraction`s, every run's instance,
//! bytes, files, exact `job_secs` bits and deadline verdict, plus the
//! report's billed hours, exact cost bits and misses, and the executor's
//! own tallies: rejected candidates and the measured bandwidth bits, or
//! replacements. Quality-aware also runs with a candidate cap that a
//! hostile fleet exhausts.
//!
//! Same-binary determinism tests cannot see a change in which instance a
//! share lands on or in the rounding of its timeline; this fixture can.
//!
//! Regenerate (only when an executor change is intended) with
//! `UPDATE_GOLDEN=1 cargo test -p provision --test executor_golden`.

use corpus::FileSpec;
use ec2sim::{Cloud, CloudConfig};
use perfmodel::{fit, Fit, ModelKind};
use provision::{
    execute_dynamic, execute_quality_aware, make_plan, DynamicConfig, ExecutionConfig,
    ExecutionReport, QualityAwareConfig, StagingTier, Strategy,
};
use serde::Serialize;
use textapps::GrepCostModel;

const FIXTURE: &str = include_str!("fixtures/executor_golden.json");
const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/executor_golden.json"
);

const SLOW_FRACTIONS: [f64; 3] = [0.0, 0.35, 0.9];
const SEEDS: u64 = 20;
const CAPPED_SEEDS: u64 = 4;

/// An executor's fleet summary.
#[derive(Debug, Serialize)]
struct Summary {
    /// `instance:volume:files:job_secs_bits:met_deadline`, in run order.
    runs: Vec<String>,
    instance_hours: u64,
    cost_bits: String,
    misses: usize,
}

impl Summary {
    fn new(execution: &ExecutionReport) -> Self {
        let runs = execution
            .runs
            .iter()
            .map(|r| {
                format!(
                    "{}:{}:{}:{:016x}:{}",
                    r.instance.0,
                    r.volume,
                    r.files,
                    r.job_secs.to_bits(),
                    r.met_deadline
                )
            })
            .collect();
        Summary {
            runs,
            instance_hours: execution.instance_hours,
            cost_bits: format!("{:016x}", execution.cost.to_bits()),
            misses: execution.misses,
        }
    }

    /// Bytes the runs processed.
    fn covered(&self) -> u64 {
        self.runs
            .iter()
            .map(|r| r.split(':').nth(1).unwrap().parse::<u64>().unwrap())
            .sum()
    }
}

/// One quality-aware run.
#[derive(Debug, Serialize)]
struct QualityAwareCase {
    name: String,
    execution: Summary,
    rejected: usize,
    measured_mbps_bits: Vec<String>,
}

/// One dynamic run.
#[derive(Debug, Serialize)]
struct DynamicCase {
    name: String,
    execution: Summary,
    replacements: usize,
}

#[derive(Debug, Serialize)]
struct Golden {
    quality_aware: Vec<QualityAwareCase>,
    dynamic: Vec<DynamicCase>,
}

fn grep_fit() -> Fit {
    let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e8).collect();
    let ys: Vec<f64> = xs.iter().map(|&x| 1.0 + x / 75.0e6).collect();
    fit(ModelKind::Affine, &xs, &ys)
}

fn corpus_files() -> Vec<FileSpec> {
    (0..60).map(|i| FileSpec::new(i, 100_000_000)).collect() // 6 GB
}

fn cloud(seed: u64, slow_fraction: f64) -> Cloud {
    Cloud::new(CloudConfig {
        seed,
        slow_fraction,
        ..CloudConfig::default()
    })
}

fn quality_aware_case(
    label: &str,
    seed: u64,
    slow_fraction: f64,
    staging: StagingTier,
    qcfg: &QualityAwareConfig,
) -> QualityAwareCase {
    let cfg = ExecutionConfig {
        staging,
        ..ExecutionConfig::default()
    };
    let report = execute_quality_aware(
        &mut cloud(seed, slow_fraction),
        &corpus_files(),
        &grep_fit(),
        60.0,
        &GrepCostModel::default(),
        &cfg,
        qcfg,
    )
    .expect("fault-free quality-aware run");
    QualityAwareCase {
        name: format!("{label}/{staging:?}/slow{slow_fraction}/seed{seed}"),
        execution: Summary::new(&report.execution),
        rejected: report.rejected,
        measured_mbps_bits: report
            .measured_mbps
            .iter()
            .map(|m| format!("{:016x}", m.to_bits()))
            .collect(),
    }
}

fn dynamic_case(seed: u64, slow_fraction: f64) -> DynamicCase {
    let f = grep_fit();
    let plan = make_plan(Strategy::UniformBins, &corpus_files(), &f, 40.0).unwrap();
    let report = execute_dynamic(
        &mut cloud(seed, slow_fraction),
        &plan,
        &GrepCostModel::default(),
        &f,
        &ExecutionConfig::default(),
        &DynamicConfig {
            batches: 6,
            slowdown_threshold: 1.3,
            max_replacements: 4,
        },
    )
    .expect("fault-free dynamic run");
    DynamicCase {
        name: format!("dynamic/slow{slow_fraction}/seed{seed}"),
        execution: Summary::new(&report.execution),
        replacements: report.replacements,
    }
}

fn golden() -> Golden {
    let mut quality_aware = Vec::new();
    let mut dynamic = Vec::new();
    let default = QualityAwareConfig::default();
    // A bar most of a 90 %-slow fleet fails, and a cap it runs out of.
    let capped = QualityAwareConfig {
        min_usable_mbps: 56.0,
        max_candidates: 6,
        ..default
    };
    for slow_fraction in SLOW_FRACTIONS {
        for seed in 0..SEEDS {
            for staging in [StagingTier::Ebs, StagingTier::Local] {
                quality_aware.push(quality_aware_case(
                    "quality_aware",
                    seed,
                    slow_fraction,
                    staging,
                    &default,
                ));
            }
            dynamic.push(dynamic_case(seed, slow_fraction));
        }
    }
    for seed in 0..CAPPED_SEEDS {
        for staging in [StagingTier::Ebs, StagingTier::Local] {
            quality_aware.push(quality_aware_case(
                "quality_aware_capped",
                seed,
                0.9,
                staging,
                &capped,
            ));
        }
    }
    Golden {
        quality_aware,
        dynamic,
    }
}

#[test]
fn executors_match_committed_golden_fixture() {
    let golden = golden();
    // The fixture only pins the interesting paths if some probes reject,
    // some capped runs leave work unfinished and some laggards are swapped.
    assert!(golden.quality_aware.iter().any(|c| c.rejected > 0));
    assert!(golden.quality_aware.iter().any(|c| {
        c.name.starts_with("quality_aware_capped") && c.execution.covered() < 6_000_000_000
    }));
    assert!(golden.dynamic.iter().any(|c| c.replacements > 0));
    let rendered = serde_json::to_string_pretty(&golden).expect("fixture json") + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE_PATH, &rendered).expect("write fixture");
        return;
    }
    for (got, want) in rendered.lines().zip(FIXTURE.lines()) {
        assert_eq!(got, want, "an executor diverged from the golden fixture");
    }
    assert_eq!(rendered.lines().count(), FIXTURE.lines().count());
}
