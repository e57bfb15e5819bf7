//! bonnie++-style instance screening.
//!
//! The paper's §4 procedure: "we first request a small instance and measure
//! its performance using bonnie++ to ensure that it is of high quality
//! (over 60 MB/s block read/write performance). We repeat this performance
//! measurement to confirm that the instance is stable. We repeat this
//! procedure until we acquire an instance that performs well."

use crate::cloud::Cloud;
use crate::error::CloudError;
use crate::family::InstanceFamily;
use crate::instance::InstanceId;
use crate::types::{AvailabilityZone, InstanceType};
use serde::{Deserialize, Serialize};

/// One bonnie measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BonnieReport {
    /// Measured block read bandwidth, MB/s.
    pub block_read_mbps: f64,
    /// Measured block write bandwidth, MB/s.
    pub block_write_mbps: f64,
    /// Wall-clock seconds the benchmark took.
    pub duration_s: f64,
}

/// Acceptance policy for screening.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScreeningPolicy {
    /// Minimum acceptable block bandwidth, MB/s (the paper uses 60).
    pub min_mbps: f64,
    /// Maximum coefficient of variation across repeats.
    pub max_cv: f64,
    /// Number of repeated measurements.
    pub repeats: usize,
    /// Give up after this many candidate instances.
    pub max_attempts: usize,
}

impl Default for ScreeningPolicy {
    fn default() -> Self {
        ScreeningPolicy {
            min_mbps: 60.0,
            max_cv: 0.08,
            repeats: 2,
            max_attempts: 16,
        }
    }
}

impl ScreeningPolicy {
    /// This policy judged against `family`'s nominal bandwidth: the family
    /// transform divides instance I/O by `perf_multiplier`, so the bar
    /// divides with it. A low-power instance that reads at half the
    /// standard rate is slow by design, not a bad instance. `None` and the
    /// standard family (multiplier exactly 1.0) leave the bar bit for bit.
    pub fn for_family(&self, family: Option<&InstanceFamily>) -> ScreeningPolicy {
        ScreeningPolicy {
            min_mbps: self.min_mbps / family.map_or(1.0, |f| f.perf_multiplier),
            ..*self
        }
    }
}

/// One bonnie++-style measurement on the **instance's own timeline**: a
/// ~1 GB block read then write against the local store starting at `at`,
/// observed through the usual noise model. The global clock is untouched;
/// returns the report and the time the measurement finishes, which is
/// `at + duration_s` (the sum is taken first, so a caller that advances a
/// clock by `duration_s` lands on the same bits).
pub fn run_bonnie_at(
    cloud: &mut Cloud,
    inst: InstanceId,
    at: f64,
) -> Result<(BonnieReport, f64), CloudError> {
    const PROBE_BYTES: f64 = 1.0e9;
    let q = cloud.quality(inst)?;
    let noise = cloud.config().noise;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(
        at.to_bits() ^ inst.0.wrapping_mul(0xA24B_AED4_963E_E407),
    );
    let read_secs = noise.observe(&mut rng, PROBE_BYTES / q.io_bps, q.jitter_rel);
    let write_secs = noise.observe(&mut rng, PROBE_BYTES / (q.io_bps * 0.9), q.jitter_rel);
    let duration_s = read_secs + write_secs;
    Ok((
        BonnieReport {
            block_read_mbps: PROBE_BYTES / read_secs / 1.0e6,
            block_write_mbps: PROBE_BYTES / write_secs / 1.0e6,
            duration_s,
        },
        at + duration_s,
    ))
}

/// A lightweight read-only disk probe on the instance's own timeline
/// (the §7 "lightweight tests": much cheaper than full bonnie). Returns
/// `(measured MB/s, end time)`.
pub fn run_disk_probe_at(
    cloud: &mut Cloud,
    inst: InstanceId,
    at: f64,
    probe_bytes: f64,
) -> Result<(f64, f64), CloudError> {
    let q = cloud.quality(inst)?;
    let noise = cloud.config().noise;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(
        at.to_bits() ^ inst.0.wrapping_mul(0x517C_C1B7_2722_0A95),
    );
    let secs = noise.observe(&mut rng, probe_bytes / q.io_bps, q.jitter_rel);
    Ok((probe_bytes / secs / 1.0e6, at + secs))
}

/// The screening verdict, on the instance's own timeline: `repeats` bonnie
/// measurements starting when the instance boots; it passes when the
/// slowest read beats `min_mbps` and the reads' CV is at most `max_cv`.
/// Returns `(passed, ready_time)`.
pub fn screen_at(
    cloud: &mut Cloud,
    inst: InstanceId,
    policy: &ScreeningPolicy,
) -> Result<(bool, f64), CloudError> {
    let mut t = cloud.running_at(inst)?;
    let mut reads = Vec::with_capacity(policy.repeats);
    for _ in 0..policy.repeats {
        let (report, end) = run_bonnie_at(cloud, inst, t)?;
        reads.push(report.block_read_mbps);
        t = end;
    }
    let mean = reads.iter().sum::<f64>() / reads.len() as f64;
    let cv = if reads.len() > 1 {
        let var = reads.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (reads.len() - 1) as f64;
        var.sqrt() / mean
    } else {
        0.0
    };
    let min = reads.iter().cloned().fold(f64::INFINITY, f64::min);
    Ok((min > policy.min_mbps && cv <= policy.max_cv, t))
}

/// The one launch-and-screen loop. Launch a candidate with `launch`,
/// screen it on its own timeline, and keep it if it passes; otherwise
/// terminate it when its screen ends and launch the next, up to
/// `policy.max_attempts` candidates. `launch` receives the end time of the
/// previous reject (0.0 before the first), so a caller that runs on the
/// global clock can move there before launching.
///
/// Returns the accepted instance, the time it is ready for work (never
/// before the previous reject ended) and the number of candidates used.
pub fn acquire_screened(
    cloud: &mut Cloud,
    policy: &ScreeningPolicy,
    mut launch: impl FnMut(&mut Cloud, f64) -> Result<InstanceId, CloudError>,
) -> Result<(InstanceId, f64, usize), CloudError> {
    let mut rejected_at = 0.0f64;
    for attempt in 1..=policy.max_attempts {
        let inst = launch(cloud, rejected_at)?;
        let (passed, ready) = screen_at(cloud, inst, policy)?;
        let ready = ready.max(rejected_at);
        if passed {
            return Ok((inst, ready, attempt));
        }
        cloud.terminate_at(inst, ready)?;
        rejected_at = ready;
    }
    Err(CloudError::ScreeningExhausted {
        attempts: policy.max_attempts,
    })
}

/// [`acquire_screened`] on the global clock: each candidate launches when
/// the previous reject's screen ended, and the clock ends where the
/// accepted instance's screen ended. Returns the accepted instance and how
/// many candidates were burned.
pub fn acquire_good_instance(
    cloud: &mut Cloud,
    itype: InstanceType,
    zone: AvailabilityZone,
    policy: &ScreeningPolicy,
) -> Result<(InstanceId, usize), CloudError> {
    let (id, ready, attempts) = acquire_screened(cloud, policy, |cloud, rejected_at| {
        cloud.advance_to(rejected_at);
        cloud.launch(itype, zone)
    })?;
    cloud.advance_to(ready);
    Ok((id, attempts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::CloudConfig;

    fn zone() -> AvailabilityZone {
        AvailabilityZone::us_east_1a()
    }

    #[test]
    fn bonnie_reflects_instance_quality() {
        let mut cloud = Cloud::new(CloudConfig::ideal(1));
        let id = cloud.launch(InstanceType::Small, zone()).unwrap();
        let q = cloud.quality(id).unwrap();
        let at = cloud.running_at(id).unwrap();
        let (r, end) = run_bonnie_at(&mut cloud, id, at).unwrap();
        assert_eq!(end, at + r.duration_s);
        let expected = q.io_bps / 1.0e6;
        assert!(
            (r.block_read_mbps - expected).abs() / expected < 0.05,
            "measured {} expected {expected}",
            r.block_read_mbps
        );
    }

    #[test]
    fn family_bar_scales_with_the_perf_multiplier() {
        let policy = ScreeningPolicy::default();
        assert_eq!(policy.for_family(None), policy);
        assert_eq!(policy.for_family(Some(&InstanceFamily::standard())), policy);
        let low = InstanceFamily::low_power();
        let bar = policy.for_family(Some(&low));
        assert_eq!(bar.min_mbps, 60.0 / low.perf_multiplier);
        assert_eq!((bar.max_cv, bar.repeats, bar.max_attempts), (0.08, 2, 16));
    }

    #[test]
    fn screening_returns_a_good_instance() {
        let mut cloud = Cloud::new(CloudConfig {
            seed: 3,
            slow_fraction: 0.5, // hostile fleet to force retries sometimes
            ..CloudConfig::default()
        });
        let (id, attempts) =
            acquire_good_instance(&mut cloud, InstanceType::Small, zone(), &Default::default())
                .unwrap();
        let q = cloud.quality(id).unwrap();
        assert!(q.io_bps > 55.0e6, "accepted a slow instance: {q:?}");
        assert!(attempts >= 1);
    }

    #[test]
    fn screening_burns_rejected_instances() {
        // With an all-slow fleet, screening must keep terminating and
        // eventually give up.
        let mut cloud = Cloud::new(CloudConfig {
            seed: 4,
            slow_fraction: 1.0,
            inconsistent_fraction: 0.0,
            ..CloudConfig::default()
        });
        let policy = ScreeningPolicy {
            max_attempts: 3,
            ..Default::default()
        };
        let err = acquire_good_instance(&mut cloud, InstanceType::Small, zone(), &policy);
        assert!(
            matches!(err, Err(CloudError::ScreeningExhausted { attempts: 3 })),
            "{err:?}"
        );
    }

    #[test]
    fn screening_advances_clock() {
        let mut cloud = Cloud::new(CloudConfig::default());
        let before = cloud.now();
        let _ = acquire_good_instance(&mut cloud, InstanceType::Small, zone(), &Default::default())
            .unwrap();
        assert!(cloud.now() > before + 100.0); // boot + two bonnie runs
    }
}
