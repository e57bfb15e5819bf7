//! The measurement loop shared by every workload: repeated set-up for the
//! `setup_s` median, a warm-up, then repetitions of the operation for the
//! requested host seconds, with output checks after every repetition.

use crate::trace::{Phase, Tracer};
use std::time::Instant;

/// Input generations per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 3;

/// Name of the span that wraps one traced repetition of the operation.
/// Its self time is `core.unattributed_s`.
pub const ROOT: &str = "rep";

/// One named number with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// A prediction written down before measuring, and whether it held.
#[derive(Debug, Clone)]
pub struct Prediction {
    pub claim: &'static str,
    pub held: bool,
    pub evidence: String,
}

/// Output checks: each counts as one attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    /// Determinism guard: simulated metrics of a repetition must equal
    /// those of the first run with the same seed, bit for bit.
    pub fn same_sim(&mut self, reference: &[Metric], got: &[Metric]) {
        self.check("sim metrics repeat", reference == got, || {
            format!("first run {reference:?}, repetition {got:?}")
        });
    }
}

/// What a workload reports beyond the timings the harness takes.
#[derive(Debug, Default)]
pub struct Outcome {
    /// What one item is: `files` or `jobs`.
    pub item: &'static str,
    /// Items one repetition completes.
    pub items: u64,
    /// Real payload bytes one repetition processes, where there are any.
    pub payload_bytes: Option<u64>,
    /// Simulated metrics; identical for every repetition of a seed.
    pub sim: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layer: Vec<Metric>,
    pub predictions: Vec<Prediction>,
    /// Input sizes and settings, recorded with the result.
    pub params: Vec<(&'static str, serde::Value)>,
}

/// Per-run state handed to a workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub checks: Checks,
    pub setup_secs: Vec<f64>,
    pub warmup_secs: f64,
    /// Wall time of every untraced repetition.
    pub plain_secs: Vec<f64>,
    /// Wall time of every traced repetition, extra measurements included.
    pub traced_secs: Vec<f64>,
    /// Peak resident memory when the last repetition ended, before any
    /// check that runs after the measurement.
    pub peak_rss_mb: Result<f64, String>,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Ctx {
            seed,
            seconds,
            tracer: Tracer::new(trace),
            checks: Checks::default(),
            setup_secs: Vec::new(),
            warmup_secs: 0.0,
            plain_secs: Vec::new(),
            traced_secs: Vec::new(),
            peak_rss_mb: Err("the operation was never measured".into()),
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Generate the inputs [`SETUP_REPS`] times, timing each, and keep the
    /// last. The previous inputs are dropped before the next generation so
    /// peak memory holds one copy.
    pub fn setup<T>(&mut self, mut generate: impl FnMut(&mut Tracer) -> T) -> T {
        let mut kept = None;
        for k in 0..SETUP_REPS {
            drop(kept.take());
            self.tracer.begin(Phase::Setup, k);
            let started = Instant::now();
            kept = Some(generate(&mut self.tracer));
            self.setup_secs.push(started.elapsed().as_secs_f64());
        }
        kept.expect("SETUP_REPS is positive")
    }

    /// Run the operation once untimed-for-throughput so lazy set-up and
    /// caches settle; its wall time counts towards `setup_s`.
    pub fn warmup<O>(&mut self, op: impl FnOnce() -> O) -> O {
        let started = Instant::now();
        let out = op();
        self.warmup_secs = started.elapsed().as_secs_f64();
        out
    }

    /// Repeat the operation until `seconds` of host time have passed (at
    /// least once). Untraced runs repeat `plain`; traced runs alternate
    /// `plain` and `traced`, so the trace overhead compares like with
    /// like. Every output goes through `inspect` outside the timed region.
    pub fn measure<O>(
        &mut self,
        mut plain: impl FnMut() -> O,
        mut traced: impl FnMut(&mut Tracer) -> O,
        mut inspect: impl FnMut(&mut Checks, O),
    ) {
        let budget = Instant::now();
        let mut rep = 0;
        loop {
            let started = Instant::now();
            let out = std::hint::black_box(plain());
            self.plain_secs.push(started.elapsed().as_secs_f64());
            inspect(&mut self.checks, out);
            if self.tracer.enabled() {
                self.tracer.begin(Phase::Traced, rep);
                let started = Instant::now();
                let out = std::hint::black_box(traced(&mut self.tracer));
                self.traced_secs.push(started.elapsed().as_secs_f64());
                inspect(&mut self.checks, out);
            }
            rep += 1;
            if budget.elapsed().as_secs_f64() >= self.seconds {
                break;
            }
        }
        self.peak_rss_mb = peak_rss_mb();
    }

    /// Check that every traced repetition made the same number of calls
    /// to `span`: a count-type per-layer metric that moves between
    /// repetitions of one seed is a failure, not noise.
    pub fn same_calls(&mut self, span: &str) {
        let each = self.tracer.calls_each(Phase::Traced, span);
        let first = each.first().copied();
        self.checks.check(
            &format!("{span} calls repeat"),
            each.iter().all(|c| Some(*c) == first),
            || format!("per repetition: {each:?}"),
        );
    }
}

/// Peak resident set of this process, from the kernel's high-water mark.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
