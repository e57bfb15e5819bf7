//! Golden screening fixture: pins which instance §4 screening accepts.
//!
//! Two things are recorded in `tests/fixtures/screening_golden.json`:
//!
//! * `acquire_good_instance` on 250 seeds at each of four `slow_fraction`s:
//!   the accepted instance id, how many candidates it took, and the exact
//!   bits of `cloud.now()` afterwards (or `exhausted` when every candidate
//!   failed);
//! * the FNV-1a digest of `Pipeline::run`'s NDJSON log on a small
//!   `html_18mil` manifest, which starts with a screened probe instance
//!   (fleet screening off, so the probe instance is the only one
//!   screened).
//!
//! Same-binary determinism tests cannot see a change in which candidate
//! passes or in the rounding of the screening clock; this fixture can.
//!
//! Regenerate (only when a screening change is intended) with
//! `UPDATE_GOLDEN=1 cargo test -p reshape --test screening_golden`.

use corpus::hash::fnv1a;
use ec2sim::{acquire_good_instance, AvailabilityZone, Cloud, CloudConfig, InstanceType};
use obs::Obs;
use reshape::{App, Pipeline, PipelineConfig, ProbeCampaign, Workload};
use serde::Serialize;

const FIXTURE: &str = include_str!("fixtures/screening_golden.json");
const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/screening_golden.json"
);

const SLOW_FRACTIONS: [f64; 4] = [0.0, 0.2, 0.5, 0.9];
const SEEDS: u64 = 250;
const PIPELINE_SEEDS: [u64; 2] = [1, 31];

/// Screening outcomes over every seed at one `slow_fraction`.
#[derive(Debug, Serialize)]
struct AcquireCase {
    slow_fraction: f64,
    /// `seed:id:attempts:now_bits`, or `seed:exhausted` on failure.
    outcomes: Vec<String>,
}

/// One pipeline run.
#[derive(Debug, Serialize)]
struct PipelineCase {
    seed: u64,
    screening_attempts: usize,
    log_fnv1a64: String,
    log_bytes: usize,
}

#[derive(Debug, Serialize)]
struct Golden {
    acquire: Vec<AcquireCase>,
    pipeline: Vec<PipelineCase>,
}

fn acquire_case(slow_fraction: f64) -> AcquireCase {
    let outcomes = (0..SEEDS)
        .map(|seed| {
            let mut cloud = Cloud::new(CloudConfig {
                seed,
                slow_fraction,
                ..CloudConfig::default()
            });
            match acquire_good_instance(
                &mut cloud,
                InstanceType::Small,
                AvailabilityZone::us_east_1a(),
                &Default::default(),
            ) {
                Ok((id, attempts)) => {
                    format!("{seed}:{}:{attempts}:{:016x}", id.0, cloud.now().to_bits())
                }
                Err(_) => format!("{seed}:exhausted"),
            }
        })
        .collect();
    AcquireCase {
        slow_fraction,
        outcomes,
    }
}

fn pipeline_case(seed: u64) -> PipelineCase {
    let obs = Obs::recording(seed);
    let mut config = PipelineConfig {
        deadline_secs: 10.0,
        probe: ProbeCampaign {
            v0: 5_000_000,
            growth: 5,
            max_volume: 400_000_000,
            repeats: 3,
            s0: 1_000_000,
            factors: vec![10, 100],
            stability_cv: 0.25,
            min_sets: 3,
        },
        screen_fleet: false,
        obs: obs.clone(),
        ..PipelineConfig::default()
    };
    config.cloud.seed = seed;
    let workload = Workload::new(corpus::html_18mil(0.0005, seed), App::grep("zxqv"));
    let report = Pipeline::new(config).run(&workload).expect("pipeline run");
    let log = obs.to_ndjson();
    PipelineCase {
        seed,
        screening_attempts: report.screening_attempts,
        log_fnv1a64: format!("{:016x}", fnv1a(log.as_bytes())),
        log_bytes: log.len(),
    }
}

#[test]
fn screening_matches_committed_golden_fixture() {
    let golden = Golden {
        acquire: SLOW_FRACTIONS.into_iter().map(acquire_case).collect(),
        pipeline: PIPELINE_SEEDS.into_iter().map(pipeline_case).collect(),
    };
    // The fixture only pins the retry path if some acquisitions burn
    // candidates and some run out.
    let outcomes = || golden.acquire.iter().flat_map(|c| &c.outcomes);
    assert!(outcomes().any(|o| o.split(':').nth(2).is_some_and(|a| a != "1")));
    assert!(outcomes().any(|o| o.ends_with(":exhausted")));
    let rendered = serde_json::to_string_pretty(&golden).expect("fixture json") + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE_PATH, &rendered).expect("write fixture");
        return;
    }
    for (got, want) in rendered.lines().zip(FIXTURE.lines()) {
        assert_eq!(got, want, "screening diverged from the golden fixture");
    }
    assert_eq!(rendered.lines().count(), FIXTURE.lines().count());
}
