//! Host-time spans recorded by the benchmark around calls into the
//! repository's public functions.
//!
//! Spans live in memory while a workload runs and are written out once at
//! the end. A disabled tracer records nothing, so the untraced run pays
//! only a branch per call site.

use serde::Value;
use std::time::Instant;

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Input generation, repeated for the `setup_s` median.
    Setup,
    /// A traced repetition of the measured operation.
    Traced,
}

impl Phase {
    fn label(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Traced => "traced",
        }
    }
}

/// One closed span: host seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub phase: Phase,
    /// Repetition id within the phase.
    pub rep: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    phase: Phase,
    rep: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            phase: Phase::Setup,
            rep: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Later spans belong to repetition `rep` of `phase`.
    pub fn begin(&mut self, phase: Phase, rep: usize) {
        self.phase = phase;
        self.rep = rep;
    }

    /// Run `f` inside a span called `name`. Spans opened inside `f`
    /// become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
            phase: self.phase,
            rep: self.rep,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    fn reps(&self, phase: Phase) -> Vec<usize> {
        let mut reps: Vec<usize> = self
            .spans
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.rep)
            .collect();
        reps.sort_unstable();
        reps.dedup();
        reps
    }

    /// Per repetition of `phase`, the summed duration of spans called
    /// `name`, then the median across repetitions (0 when none ran).
    pub fn total(&self, phase: Phase, name: &str) -> f64 {
        self.per_rep(phase, |rep| {
            self.spans
                .iter()
                .filter(|s| s.phase == phase && s.rep == rep && s.name == name)
                .map(Span::secs)
                .sum()
        })
    }

    /// Like [`total`](Self::total) but each span's self time: its duration
    /// minus the part its direct children cover.
    pub fn self_time(&self, phase: Phase, name: &str) -> f64 {
        self.per_rep(phase, |rep| {
            self.spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.phase == phase && s.rep == rep && s.name == name)
                .map(|(i, s)| s.secs() - self.children_secs(i))
                .sum()
        })
    }

    /// Number of spans called `name` per repetition of `phase`, median.
    pub fn calls(&self, phase: Phase, name: &str) -> f64 {
        self.per_rep(phase, |rep| {
            self.spans
                .iter()
                .filter(|s| s.phase == phase && s.rep == rep && s.name == name)
                .count() as f64
        })
    }

    /// The per-repetition span counts of `name`, to check they repeat.
    pub fn calls_each(&self, phase: Phase, name: &str) -> Vec<usize> {
        self.reps(phase)
            .into_iter()
            .map(|rep| {
                self.spans
                    .iter()
                    .filter(|s| s.phase == phase && s.rep == rep && s.name == name)
                    .count()
            })
            .collect()
    }

    /// The direct children of top-level span `root` with the largest
    /// median total, as `(name, seconds)`, largest first.
    pub fn child_totals(&self, root: &str) -> Vec<(&'static str, f64)> {
        let mut names: Vec<&'static str> = self
            .spans
            .iter()
            .filter(|s| {
                s.phase == Phase::Traced && s.parent.is_some_and(|p| self.spans[p].name == root)
            })
            .map(|s| s.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        let mut out: Vec<(&'static str, f64)> = names
            .into_iter()
            .map(|n| (n, self.total(Phase::Traced, n)))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    fn children_secs(&self, parent: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::secs)
            .sum()
    }

    fn per_rep(&self, phase: Phase, value: impl Fn(usize) -> f64) -> f64 {
        let values: Vec<f64> = self.reps(phase).into_iter().map(value).collect();
        if values.is_empty() {
            0.0
        } else {
            crate::stats::median(&values)
        }
    }

    /// Every span as a JSON array, in the order they were opened.
    pub fn to_value(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("name".into(), Value::String(s.name.into())),
                        ("start_s".into(), Value::F64(s.start_s)),
                        ("end_s".into(), Value::F64(s.end_s)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        ("phase".into(), Value::String(s.phase.label().into())),
                        ("rep".into(), Value::U64(s.rep as u64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.begin(Phase::Traced, 0);
        t.span("root", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let total = t.total(Phase::Traced, "root");
        let own = t.self_time(Phase::Traced, "root");
        assert!(total >= 0.005 && own < total);
        assert_eq!(t.calls(Phase::Traced, "child"), 1.0);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("root", |_| 7), 7);
        assert_eq!(off.total(Phase::Traced, "root"), 0.0);
    }
}
