//! Execute a [`Plan`] on the simulated cloud: one instance per bin, all in
//! parallel, with data staged on EBS (the grep setup: "the data is already
//! staged onto EBS storage volumes") or local storage (the POS setup:
//! "staged onto local storage in a constant time per run").

use crate::dynamic::Monitor;
use crate::plan::{InstancePlan, Plan};
use crate::pricing::{instance_hours, PricingModel};
use corpus::FileSpec;
use ec2sim::{
    acquire_screened, Cloud, CloudError, DataLocation, InstanceId, RunReport, ScreeningPolicy,
};
use obs::Obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use textapps::AppCostModel;

/// Where each instance's input is staged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StagingTier {
    /// One EBS volume per instance, attached before the run.
    Ebs,
    /// Ephemeral local storage, populated in constant time per run.
    Local,
}

/// Execution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionConfig {
    /// Instance type for the fleet.
    pub itype: ec2sim::InstanceType,
    /// Zone for instances and volumes.
    pub zone: ec2sim::AvailabilityZone,
    /// Where the data sits.
    pub staging: StagingTier,
    /// Constant stage-in time for `Local` staging, seconds.
    pub stage_in_secs: f64,
    /// Screen every fleet instance with bonnie before use (§4 applied
    /// fleet-wide); rejected instances are terminated unbilled-but-booted
    /// and replaced, delaying that share's start.
    pub screen: bool,
    /// Pricing used for the report.
    pub pricing: PricingModel,
    /// When set, the fleet launches through this instance family: sampled
    /// quality is reshaped by the family transform and the billed rate is
    /// the family's on-demand price. `None` keeps the classic
    /// single-family behavior bit-for-bit.
    pub family: Option<ec2sim::InstanceFamily>,
    /// When set, overrides the billed hourly rate (spot acquisitions
    /// record the expected market price here).
    pub rate_override: Option<f64>,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            itype: ec2sim::InstanceType::Small,
            zone: ec2sim::AvailabilityZone::us_east_1a(),
            staging: StagingTier::Ebs,
            stage_in_secs: 30.0,
            screen: false,
            pricing: PricingModel::default(),
            family: None,
            rate_override: None,
        }
    }
}

impl ExecutionConfig {
    /// Dollars billed per started instance-hour under this configuration:
    /// the explicit override, else the family's on-demand rate, else the
    /// flat pricing-model rate.
    pub fn hourly_rate(&self) -> f64 {
        self.rate_override
            .or(self.family.map(|f| f.on_demand_rate))
            .unwrap_or(self.pricing.hourly_rate)
    }
}

/// One instance's measured execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceRun {
    /// Which instance ran this share.
    pub instance: InstanceId,
    /// Bytes processed.
    pub volume: u64,
    /// Files processed.
    pub files: usize,
    /// The plan's predicted runtime, seconds.
    pub predicted_secs: f64,
    /// Observed job time (staging/attach + application run), seconds —
    /// the quantity the paper plots against the deadline line.
    pub job_secs: f64,
    /// Whether the job finished within the user deadline.
    pub met_deadline: bool,
}

/// The fleet-level outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Per-instance outcomes, in plan order.
    pub runs: Vec<InstanceRun>,
    /// The user deadline, seconds.
    pub deadline_secs: f64,
    /// Max observed job time, seconds.
    pub makespan_secs: f64,
    /// Instances that missed the deadline.
    pub misses: usize,
    /// Total billed instance-hours.
    pub instance_hours: u64,
    /// Total dollars.
    pub cost: f64,
}

impl ExecutionReport {
    /// The fleet summary every executor reports: the makespan is the
    /// slowest run, a miss is a late run or one of the `unfinished`
    /// shares, and the bill is `instance_hours × cfg.hourly_rate()`.
    pub(crate) fn summarize(
        runs: Vec<InstanceRun>,
        deadline_secs: f64,
        unfinished: usize,
        instance_hours: u64,
        cfg: &ExecutionConfig,
    ) -> Self {
        ExecutionReport {
            deadline_secs,
            makespan_secs: runs.iter().map(|r| r.job_secs).fold(0.0, f64::max),
            misses: runs.iter().filter(|r| !r.met_deadline).count() + unfinished,
            instance_hours,
            cost: instance_hours as f64 * cfg.hourly_rate(),
            runs,
        }
    }

    /// True when no instance missed.
    pub fn met_deadline(&self) -> bool {
        self.misses == 0
    }
}

/// Where the resilient executor gets its instances from and how billed
/// hours are attributed to the share that used them.
///
/// [`FreshFleet`] reproduces the classic single-tenant behaviour (launch a
/// fresh instance per share, terminate it when the share ends, bill every
/// started hour of its span). A warm-instance pool — `sched::InstancePool`
/// — keeps released instances alive through the hour they have already
/// paid for and hands them to later shares at zero marginal cost.
pub trait FleetSource {
    /// Acquire an instance for one share. Returns the instance and the
    /// simulated time at which it is ready to start work.
    fn acquire(
        &mut self,
        cloud: &mut Cloud,
        cfg: &ExecutionConfig,
    ) -> Result<(InstanceId, f64), CloudError>;

    /// Hand a live instance back after its share ended at `at` (`ready`
    /// is the time the instance picked the share up). The source decides
    /// whether to terminate or keep it warm; it returns the billed
    /// instance-hours attributed to this share.
    fn release(
        &mut self,
        cloud: &mut Cloud,
        inst: InstanceId,
        ready: f64,
        at: f64,
    ) -> Result<u64, CloudError>;

    /// The cloud killed `inst` (crash or preemption) at `at`; it is
    /// already terminated on the cloud side. Returns the billed hours
    /// attributed to the doomed attempt.
    fn lost(&mut self, cloud: &mut Cloud, inst: InstanceId, ready: f64, at: f64) -> u64;
}

/// The classic fleet source: a fresh (optionally screened) instance per
/// share, terminated as soon as the share ends, billed for every started
/// hour between ready and release.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FreshFleet;

impl FleetSource for FreshFleet {
    fn acquire(
        &mut self,
        cloud: &mut Cloud,
        cfg: &ExecutionConfig,
    ) -> Result<(InstanceId, f64), CloudError> {
        acquire_instance(cloud, cfg)
    }

    fn release(
        &mut self,
        cloud: &mut Cloud,
        inst: InstanceId,
        ready: f64,
        at: f64,
    ) -> Result<u64, CloudError> {
        cloud.terminate_at(inst, at)?;
        Ok(instance_hours((at - ready).max(0.0)))
    }

    fn lost(&mut self, _cloud: &mut Cloud, _inst: InstanceId, ready: f64, at: f64) -> u64 {
        instance_hours((at - ready).max(0.0))
    }
}

/// Launch one fleet instance as `cfg` asks: through its instance family
/// (at the override rate when one is set), else as a plain `cfg.itype`.
pub(crate) fn launch(cloud: &mut Cloud, cfg: &ExecutionConfig) -> Result<InstanceId, CloudError> {
    match (cfg.family, cfg.rate_override) {
        (Some(f), Some(rate)) => cloud.launch_family_priced(&f, cfg.zone, rate),
        (Some(f), None) => cloud.launch_family(&f, cfg.zone),
        (None, _) => cloud.launch(cfg.itype, cfg.zone),
    }
}

/// Launch one fleet instance, optionally screening it with bonnie first
/// against its family's bar ([`acquire_screened`]; each reject is
/// terminated when its screen ends). This is the cold path used by
/// [`FreshFleet`] and by warm pools on a pool miss.
pub fn acquire_instance(
    cloud: &mut Cloud,
    cfg: &ExecutionConfig,
) -> Result<(InstanceId, f64), CloudError> {
    if !cfg.screen {
        let inst = launch(cloud, cfg)?;
        let ready = cloud.running_at(inst)?;
        return Ok((inst, ready));
    }
    let policy = ScreeningPolicy::default().for_family(cfg.family.as_ref());
    let (inst, ready, _) = acquire_screened(cloud, &policy, |cloud, _| launch(cloud, cfg))?;
    Ok((inst, ready))
}

/// Run every instance of the plan concurrently (per-instance timelines)
/// and summarize.
pub fn execute_plan(
    cloud: &mut Cloud,
    plan: &Plan,
    model: &dyn AppCostModel,
    cfg: &ExecutionConfig,
) -> Result<ExecutionReport, CloudError> {
    execute_plan_observed(cloud, plan, model, cfg, &Obs::default())
}

/// [`execute_plan`] with an observability sink: emits a per-bin
/// `execute.share` span (on the instance's simulated timeline), byte and
/// job-time metrics, and fleet-level gauges. It is the fleet summary of
/// [`execute_plan_resilient_sourced`] on a fresh fleet with the default
/// retry policy, which on a fault-free cloud never fires.
pub fn execute_plan_observed(
    cloud: &mut Cloud,
    plan: &Plan,
    model: &dyn AppCostModel,
    cfg: &ExecutionConfig,
    obs: &Obs,
) -> Result<ExecutionReport, CloudError> {
    let retry = RetryPolicy::default();
    execute_plan_resilient_sourced(cloud, plan, model, cfg, &retry, &mut FreshFleet, obs)
        .map(|d| d.execution)
}

/// How the resilient executor reacts to injected faults. All delays are
/// **simulated** seconds folded into instance timelines — this crate is
/// clock-free (RL005), so backoff never reads the wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempts per operation for transient errors (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry, simulated seconds.
    pub base_backoff_secs: f64,
    /// Multiplier between consecutive backoffs.
    pub backoff_factor: f64,
    /// Cap on a single backoff, simulated seconds.
    pub max_backoff_secs: f64,
    /// Uniform jitter applied to each backoff, as a ± fraction.
    pub jitter_frac: f64,
    /// Replacement instances allowed per share after instance loss.
    pub max_replacements: u32,
    /// Seed of the jitter RNG (independent of the cloud seed, so the same
    /// policy replays identically on any cloud).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_secs: 2.0,
            backoff_factor: 2.0,
            max_backoff_secs: 60.0,
            jitter_frac: 0.1,
            max_replacements: 3,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based): bounded
    /// exponential with uniform jitter, in simulated seconds.
    fn backoff_secs(&self, attempt: u32, rng: &mut StdRng) -> f64 {
        let exp = attempt.saturating_sub(1).min(24);
        let capped = (self.base_backoff_secs * self.backoff_factor.powi(exp as i32))
            .min(self.max_backoff_secs);
        let jitter = 1.0 + self.jitter_frac * (rng.random::<f64>() * 2.0 - 1.0);
        (capped * jitter).max(0.0)
    }
}

/// Outcome of a resilient execution: injected faults vs. recovered work
/// vs. deadline outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedReport {
    /// Fleet summary over completed shares; `misses` also counts
    /// unrecovered shares.
    pub execution: ExecutionReport,
    /// Plan indices of shares whose data was never processed (retries or
    /// replacements exhausted).
    pub failed_shares: Vec<usize>,
    /// Files actually processed per share, in plan order (empty for a
    /// failed share) — lets callers audit byte conservation with
    /// `binpack::check`.
    pub share_files: Vec<Vec<FileSpec>>,
    /// Instance crashes suffered.
    pub crashes: usize,
    /// Spot preemptions suffered.
    pub preemptions: usize,
    /// Transient errors absorbed by in-place backoff retries.
    pub transient_retries: usize,
    /// Replacement instances launched after instance loss.
    pub replacements: usize,
    /// Shares requeued onto a replacement at least once.
    pub requeued_shares: usize,
    /// Bytes completed on a replacement after an instance loss.
    pub recovered_bytes: u64,
    /// Bytes never processed (failed shares).
    pub lost_bytes: u64,
    /// Fault events that actually fired in the cloud.
    pub faults_fired: usize,
    /// Simulated time the last share finished or gave up; equal to the
    /// phase start when the plan is empty. Schedulers use this as the
    /// job's completion instant on the shared clock.
    pub finished_at: f64,
}

impl DegradedReport {
    /// Shares in the plan (completed + failed).
    pub fn total_shares(&self) -> usize {
        self.execution.runs.len() + self.failed_shares.len()
    }

    /// Fraction of shares that missed the deadline (failed shares count
    /// as misses).
    pub fn miss_rate(&self) -> f64 {
        if self.total_shares() == 0 {
            return 0.0;
        }
        self.execution.misses as f64 / self.total_shares() as f64
    }
}

/// The log names a share runner writes under: the per-share span, if the
/// caller wants one, and the recovery counters. They are log schema, so
/// each caller keeps its own prefix.
pub(crate) struct ShareLog {
    pub(crate) span: Option<&'static str>,
    pub(crate) transient_retries: &'static str,
    pub(crate) crashes: &'static str,
    pub(crate) preemptions: &'static str,
    pub(crate) replacements: &'static str,
}

/// The plan executor's jitter-RNG salt.
pub(crate) const EXECUTE_SALT: u64 = 0xBACC_0FF5;

/// The plan executor's log names.
pub(crate) const EXECUTE_LOG: ShareLog = ShareLog {
    span: Some("execute.share"),
    transient_retries: "execute.transient_retries",
    crashes: "execute.crashes",
    preemptions: "execute.preemptions",
    replacements: "execute.replacements",
};

/// Recovery tallies a run accumulates across its shares.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RecoveryStats {
    /// Billed instance-hours: released shares plus doomed attempts.
    pub(crate) hours: u64,
    pub(crate) crashes: usize,
    pub(crate) preemptions: usize,
    pub(crate) transient_retries: usize,
    pub(crate) replacements: usize,
    /// Laggards a batch monitor swapped out.
    pub(crate) swaps: usize,
}

/// The one per-share attempt loop, with what a run threads through its
/// shares to recover from faults: where instances come from, the retry
/// policy and its jitter RNG, the application, the running tallies, and
/// where to count.
pub(crate) struct ShareRunner<'a> {
    pub(crate) source: &'a mut dyn FleetSource,
    retry: &'a RetryPolicy,
    /// Backoff jitter. Each caller seeds its own, and every backoff of the
    /// run draws from it in simulated-time order.
    rng: StdRng,
    model: &'a dyn AppCostModel,
    pub(crate) stats: RecoveryStats,
    log: &'a ShareLog,
    obs: &'a Obs,
}

impl<'a> ShareRunner<'a> {
    /// A runner with empty tallies whose jitter RNG is seeded from the
    /// policy seed xor the caller's `salt`.
    pub(crate) fn new(
        source: &'a mut dyn FleetSource,
        retry: &'a RetryPolicy,
        salt: u64,
        model: &'a dyn AppCostModel,
        log: &'a ShareLog,
        obs: &'a Obs,
    ) -> Self {
        ShareRunner {
            source,
            retry,
            rng: StdRng::seed_from_u64(retry.seed ^ salt),
            model,
            stats: RecoveryStats::default(),
            log,
            obs,
        }
    }

    /// The simulated wait before retry `attempt` (1-based) of a transient
    /// error, counted as a retry; `None` once the attempts are spent.
    pub(crate) fn backoff(&mut self, attempt: u32) -> Option<f64> {
        if attempt >= self.retry.max_attempts {
            return None;
        }
        self.stats.transient_retries += 1;
        self.obs.count(self.log.transient_retries, 1);
        Some(self.retry.backoff_secs(attempt, &mut self.rng))
    }

    /// Account for `inst` lost (`err`) during an attempt that began at
    /// `ready` and had reached `t`: count the crash or preemption and bill
    /// the doomed attempt through the source. Returns the time of death.
    pub(crate) fn lose(
        &mut self,
        cloud: &mut Cloud,
        inst: InstanceId,
        (ready, t): (f64, f64),
        err: &CloudError,
    ) -> f64 {
        if matches!(err, CloudError::SpotPreempted(_)) {
            self.stats.preemptions += 1;
            self.obs.count(self.log.preemptions, 1);
        } else {
            self.stats.crashes += 1;
            self.obs.count(self.log.crashes, 1);
        }
        let t_dead = cloud.crash_time(inst).unwrap_or(t).max(ready);
        self.stats.hours += self.source.lost(cloud, inst, ready, t_dead);
        t_dead
    }

    /// A replacement instance for a share that has used `used`
    /// replacements so far, ready no earlier than the loss at `t_dead`;
    /// `None` once the policy's replacements are spent.
    pub(crate) fn replace(
        &mut self,
        cloud: &mut Cloud,
        cfg: &ExecutionConfig,
        used: &mut u32,
        t_dead: f64,
    ) -> Result<Option<(InstanceId, f64)>, CloudError> {
        if *used >= self.retry.max_replacements {
            return Ok(None);
        }
        *used += 1;
        self.stats.replacements += 1;
        self.obs.count(self.log.replacements, 1);
        let (inst, ready) = self.source.acquire(cloud, cfg)?;
        Ok(Some((inst, ready.max(t_dead))))
    }

    /// Run a plan share end to end: acquire its first instance from the
    /// source, run it, and release the instance it ends on. Returns the
    /// run, timed from the first instance's readiness and judged against
    /// `deadline_secs` (`None` when the share gave up), the replacements it
    /// took, and when it finished or gave up.
    pub(crate) fn run_planned(
        &mut self,
        cloud: &mut Cloud,
        cfg: &ExecutionConfig,
        share: &InstancePlan,
        deadline_secs: f64,
        monitor: Option<&Monitor>,
    ) -> Result<(Option<InstanceRun>, u32, f64), CloudError> {
        let first = self.source.acquire(cloud, cfg)?;
        let outcome = self.run(cloud, cfg, &share.files, share.volume, first, monitor)?;
        if let Some((inst, ready, at)) = outcome.live() {
            self.stats.hours += self.source.release(cloud, inst, ready, at)?;
        }
        let at = outcome.at();
        let ShareOutcome::Done {
            report,
            first_ready,
            replacements,
            ..
        } = outcome
        else {
            return Ok((None, 0, at));
        };
        let job_secs = report.finished_at - first_ready;
        let run = InstanceRun {
            instance: report.instance,
            volume: share.volume,
            files: share.files.len(),
            predicted_secs: share.predicted_secs,
            job_secs,
            met_deadline: job_secs <= deadline_secs,
        };
        Ok((Some(run), replacements, at))
    }

    /// Run one share of `volume` bytes in `files` to an outcome, starting
    /// on the caller's first instance and its ready time: stage the data
    /// (EBS attach with bounded backoff, or local stage-in) and submit it
    /// as one batch, or as the `monitor`'s batches at growing EBS offsets.
    /// A laggard the monitor flags while work is left is released at the
    /// swap, and the share continues from the next batch on a re-staged
    /// replacement. On instance loss the doomed attempt is billed and the
    /// whole share requeued on a replacement. A persistent EBS volume
    /// survives both; local staging starts over.
    pub(crate) fn run(
        &mut self,
        cloud: &mut Cloud,
        cfg: &ExecutionConfig,
        files: &[FileSpec],
        volume: u64,
        (mut inst, mut ready): (InstanceId, f64),
        monitor: Option<&Monitor>,
    ) -> Result<ShareOutcome, CloudError> {
        let first_ready = ready;
        let span = self.log.span.map(|s| self.obs.span_start(s, ready));
        let vol = match cfg.staging {
            StagingTier::Ebs => Some(cloud.create_volume(cfg.zone, volume.max(1))),
            StagingTier::Local => None,
        };
        let attach = cloud.config().attach_overhead_s;
        // Batch `i` is `files[ends[i - 1]..ends[i]]`.
        let ends = monitor.map_or_else(|| vec![files.len()], |m| m.batch_ends(files));
        let (mut replacements, mut swaps) = (0u32, 0usize);
        // The next batch to run and the bytes before it.
        let (mut next, mut done) = (0usize, 0u64);
        let outcome = 'attempts: loop {
            // One attempt on `inst`, working no earlier than `ready`.
            let mut t = ready;
            let mut attempt = 0u32;
            let staged = loop {
                let Some(ebs) = vol else {
                    t += cfg.stage_in_secs;
                    break Ok(());
                };
                match cloud.attach_volume_at(ebs, inst, t) {
                    Ok(()) => {
                        t += attach;
                        break Ok(());
                    }
                    Err(error) if error.is_transient() => {
                        attempt += 1;
                        match self.backoff(attempt) {
                            Some(wait) => t += wait,
                            None => {
                                break 'attempts ShareOutcome::TransientExhausted {
                                    at: t,
                                    inst,
                                    ready,
                                    error,
                                };
                            }
                        }
                    }
                    Err(e) => break Err(e),
                }
            };
            let lost = match staged {
                Err(e) => e,
                Ok(()) => loop {
                    let start = if next == 0 { 0 } else { ends[next - 1] };
                    let data = vol.map_or(DataLocation::Local, |ebs| DataLocation::Ebs {
                        volume: ebs,
                        offset: done,
                    });
                    let batch = &files[start..ends[next]];
                    let report = match cloud.submit_job(inst, self.model, batch, data, t) {
                        Ok(report) => report,
                        Err(e) => break e,
                    };
                    next += 1;
                    if next == ends.len() {
                        break 'attempts ShareOutcome::Done {
                            report,
                            inst,
                            ready,
                            first_ready,
                            replacements,
                        };
                    }
                    let lagging = monitor.is_some_and(|m| m.swap(swaps, done, &report));
                    done += report.bytes;
                    t = report.finished_at;
                    if lagging && done < volume {
                        // Swap the laggard out; the volume re-attaches to
                        // the replacement without a data transfer.
                        swaps += 1;
                        self.stats.swaps += 1;
                        self.stats.hours += self.source.release(cloud, inst, ready, t)?;
                        let (fresh, boot) = self.source.acquire(cloud, cfg)?;
                        (inst, ready) = (fresh, boot.max(t));
                        continue 'attempts;
                    }
                },
            };
            if !lost.is_instance_loss() {
                return Err(lost);
            }
            // The cloud already terminated the instance and detached its
            // volumes; the whole share starts over.
            let t_dead = self.lose(cloud, inst, (ready, t), &lost);
            (next, done) = (0, 0);
            match self.replace(cloud, cfg, &mut replacements, t_dead)? {
                Some(fresh) => (inst, ready) = fresh,
                None => break ShareOutcome::ReplacementsExhausted { at: t_dead },
            }
        };
        if let Some(span) = span {
            self.obs.span_end(span, outcome.at());
        }
        Ok(outcome)
    }
}

/// How one share ended under [`ShareRunner::run`]. The runner never releases an
/// instance it ends on: the caller decides what happens to a live one.
pub(crate) enum ShareOutcome {
    /// The share completed on `inst`, which picked it up at `ready`; the
    /// share's first instance was ready at `first_ready`. `report` is the
    /// last batch's.
    Done {
        report: RunReport,
        inst: InstanceId,
        ready: f64,
        first_ready: f64,
        replacements: u32,
    },
    /// Staging kept failing transiently until the retries ran out at `at`;
    /// `inst` (ready since `ready`) is still alive.
    TransientExhausted {
        at: f64,
        inst: InstanceId,
        ready: f64,
        error: CloudError,
    },
    /// Every instance the share was given died; the last loss was at `at`.
    ReplacementsExhausted { at: f64 },
}

impl ShareOutcome {
    /// When the share finished or gave up.
    pub(crate) fn at(&self) -> f64 {
        match self {
            ShareOutcome::Done { report, .. } => report.finished_at,
            ShareOutcome::TransientExhausted { at, .. }
            | ShareOutcome::ReplacementsExhausted { at } => *at,
        }
    }

    /// The instance the share left alive, the time it picked the share up
    /// and the time the share let go of it.
    pub(crate) fn live(&self) -> Option<(InstanceId, f64, f64)> {
        match *self {
            ShareOutcome::Done { inst, ready, .. }
            | ShareOutcome::TransientExhausted { inst, ready, .. } => {
                Some((inst, ready, self.at()))
            }
            ShareOutcome::ReplacementsExhausted { .. } => None,
        }
    }
}

/// The one plan executor: run every share of the plan on a possibly
/// faulty cloud. Transient errors back off and retry in place, lost
/// instances are replaced and their whole bin requeued on the
/// replacement, and everything is accounted in a [`DegradedReport`]; on a
/// fault-free cloud its [`ExecutionReport`] is exactly [`execute_plan`]'s.
/// Recovery time counts against the deadline: a share's `job_secs` runs
/// from the moment its *first* instance was ready to the final finish.
///
/// Every acquisition, release, and loss goes through the given
/// [`FleetSource`], which also attributes billed hours. With
/// [`FreshFleet`] each share gets its own instance; with a warm pool,
/// shares land on instances whose current billed hour is already paid
/// whenever one is free.
///
/// Besides the `execute_plan_observed` metrics it counts retries, crashes,
/// preemptions, replacements, requeued bins and recovered/lost bytes as
/// they happen, so the event log shows *when* in simulated time each
/// recovery action fired.
pub fn execute_plan_resilient_sourced(
    cloud: &mut Cloud,
    plan: &Plan,
    model: &dyn AppCostModel,
    cfg: &ExecutionConfig,
    retry: &RetryPolicy,
    source: &mut dyn FleetSource,
    obs: &Obs,
) -> Result<DegradedReport, CloudError> {
    let mut runner = ShareRunner::new(source, retry, EXECUTE_SALT, model, &EXECUTE_LOG, obs);
    let mut runs = Vec::with_capacity(plan.instance_count());
    let mut share_files: Vec<Vec<FileSpec>> = Vec::with_capacity(plan.instance_count());
    let mut failed_shares = Vec::new();
    let (mut requeued_shares, mut recovered_bytes, mut lost_bytes) = (0usize, 0u64, 0u64);
    // The fleet works on per-instance event timelines without advancing
    // the cloud's global clock, so the phase span closes at the last
    // simulated finish (or give-up) time, not at `cloud.now()`.
    let phase_start = cloud.now();
    let mut last_finish = phase_start;
    let phase = obs.span_start("pipeline.execute", phase_start);

    for (idx, share) in plan.instances.iter().enumerate() {
        let (run, replacements, at) =
            runner.run_planned(cloud, cfg, share, plan.deadline_secs, None)?;
        last_finish = last_finish.max(at);
        let Some(run) = run else {
            obs.count("execute.failed_shares", 1);
            obs.count("execute.lost_bytes", share.volume);
            failed_shares.push(idx);
            share_files.push(Vec::new());
            lost_bytes += share.volume;
            continue;
        };
        obs.count("execute.bytes_moved", share.volume);
        obs.observe("execute.job_secs", run.job_secs);
        runs.push(run);
        share_files.push(share.files.clone());
        if replacements > 0 {
            requeued_shares += 1;
            recovered_bytes += share.volume;
            obs.count("execute.requeued_shares", 1);
            obs.count("execute.recovered_bytes", share.volume);
        }
    }

    let stats = runner.stats;
    let execution = ExecutionReport::summarize(
        runs,
        plan.deadline_secs,
        failed_shares.len(),
        stats.hours,
        cfg,
    );
    obs.count("execute.shares", execution.runs.len() as u64);
    obs.count("execute.instance_hours", stats.hours);
    obs.gauge("execute.makespan_secs", execution.makespan_secs);
    obs.span_end(phase, last_finish);
    Ok(DegradedReport {
        execution,
        failed_shares,
        share_files,
        crashes: stats.crashes,
        preemptions: stats.preemptions,
        transient_retries: stats.transient_retries,
        replacements: stats.replacements,
        requeued_shares,
        recovered_bytes,
        lost_bytes,
        faults_fired: cloud.fault_log().len(),
        finished_at: last_finish,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{make_plan, Strategy};
    use corpus::FileSpec;
    use ec2sim::CloudConfig;
    use perfmodel::{fit, Fit, ModelKind};
    use textapps::GrepCostModel;

    /// Model matched to the ideal cloud: 75 MB/s + per-file overhead folded
    /// into the slope for ~1 MB files.
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

    #[test]
    fn screening_exhaustion_is_typed() {
        // An all-slow fleet fails every bonnie screen.
        let mut cloud = Cloud::new(CloudConfig {
            seed: 4,
            slow_fraction: 1.0,
            inconsistent_fraction: 0.0,
            ..CloudConfig::default()
        });
        let cfg = ExecutionConfig {
            screen: true,
            ..ExecutionConfig::default()
        };
        let err = acquire_instance(&mut cloud, &cfg);
        assert!(
            matches!(err, Err(CloudError::ScreeningExhausted { attempts: 16 })),
            "{err:?}"
        );
    }

    #[test]
    fn ideal_cloud_meets_uniform_plan() {
        let mut cloud = Cloud::new(CloudConfig::ideal(1));
        let m = grep_fit();
        // 4 GB, deadline 20 s per instance -> ~ 1.4 GB per instance.
        let files = corpus_files(40, 100_000_000);
        let plan = make_plan(Strategy::UniformBins, &files, &m, 20.0).unwrap();
        let report = execute_plan(
            &mut cloud,
            &plan,
            &GrepCostModel::default(),
            &ExecutionConfig::default(),
        )
        .unwrap();
        assert_eq!(report.runs.len(), plan.instance_count());
        assert!(report.met_deadline(), "misses: {}", report.misses);
        assert!(report.makespan_secs <= 20.0);
        assert_eq!(report.instance_hours, plan.instance_count() as u64);
    }

    #[test]
    fn fleet_runs_in_parallel_not_serially() {
        let mut cloud = Cloud::new(CloudConfig::ideal(2));
        let m = grep_fit();
        let files = corpus_files(100, 100_000_000); // 10 GB
        let plan = make_plan(Strategy::UniformBins, &files, &m, 30.0).unwrap();
        assert!(plan.instance_count() >= 4);
        let report = execute_plan(
            &mut cloud,
            &plan,
            &GrepCostModel::default(),
            &ExecutionConfig::default(),
        )
        .unwrap();
        // Makespan ≈ one share's time, nowhere near the serial sum.
        let serial: f64 = report.runs.iter().map(|r| r.job_secs).sum();
        assert!(report.makespan_secs < serial / 2.0);
    }

    #[test]
    fn heterogeneous_cloud_can_miss() {
        // With a hostile fleet (many slow instances) and a deadline sized
        // for good instances, some instances must miss.
        let mut cloud = Cloud::new(CloudConfig {
            seed: 3,
            slow_fraction: 0.9,
            startup_mean_s: 0.0,
            startup_jitter_s: 0.0,
            ..CloudConfig::default()
        });
        let m = grep_fit();
        let files = corpus_files(100, 100_000_000);
        let plan = make_plan(Strategy::UniformBins, &files, &m, 30.0).unwrap();
        let report = execute_plan(
            &mut cloud,
            &plan,
            &GrepCostModel::default(),
            &ExecutionConfig::default(),
        )
        .unwrap();
        assert!(report.misses > 0);
        assert!(report.makespan_secs > 30.0);
    }

    #[test]
    fn local_staging_adds_constant_stage_in() {
        let mut cloud = Cloud::new(CloudConfig::ideal(4));
        let m = grep_fit();
        let files = corpus_files(10, 100_000_000);
        let plan = make_plan(Strategy::UniformBins, &files, &m, 60.0).unwrap();
        let cfg = ExecutionConfig {
            staging: StagingTier::Local,
            stage_in_secs: 25.0,
            ..ExecutionConfig::default()
        };
        let report = execute_plan(&mut cloud, &plan, &GrepCostModel::default(), &cfg).unwrap();
        for r in &report.runs {
            assert!(r.job_secs >= 25.0);
        }
    }

    #[test]
    fn cost_equals_hours_times_rate() {
        let mut cloud = Cloud::new(CloudConfig::ideal(5));
        let m = grep_fit();
        let files = corpus_files(30, 100_000_000);
        let plan = make_plan(Strategy::UniformBins, &files, &m, 15.0).unwrap();
        let report = execute_plan(
            &mut cloud,
            &plan,
            &GrepCostModel::default(),
            &ExecutionConfig::default(),
        )
        .unwrap();
        assert!((report.cost - report.instance_hours as f64 * 0.085).abs() < 1e-9);
    }
}
