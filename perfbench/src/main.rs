//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_grep|tenant_burst|ingest_containers|aggregate_terms|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs in its own process. It generates its inputs from
//! the seed, repeats its operation for `--seconds` of host time, checks
//! every output, and prints one JSON object as its last line of standard
//! output: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. The full result (host and build descriptor, every
//! metric, checks, predictions and spans) goes to `.perfbench_out/`.
//! `--workload all` runs every workload at the seed and at the held-out
//! seed, each in a child process, and exits non-zero if any check failed.

mod aggregate_terms;
mod harness;
mod ingest_containers;
mod paper_grep;
mod stats;
mod tenant_burst;
mod trace;

use harness::{metric, Ctx, Metric, Outcome, ROOT};
use serde::Value;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = [
    "paper_grep",
    "tenant_burst",
    "ingest_containers",
    "aggregate_terms",
];
const DEFAULT_SEED: u64 = 1;
/// A seed no workload was sized or tuned on, for checking later claims.
const HELD_OUT_SEED: u64 = 20_101;
const DEFAULT_SECONDS: f64 = 15.0;
const OUT_DIR: &str = ".perfbench_out";

/// End-to-end metrics every workload reports; the last output line of an
/// untraced run carries exactly these.
const END_TO_END: [(&str, &str); 3] = [
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the gated workloads; the last output line of a
/// traced run carries exactly these. A workload that never calls into a
/// layer reports it as 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("corpus.manifest_s", "s"),
    ("corpus.payload_s", "s"),
    ("corpus.ingest_trace_s", "s"),
    ("ec2sim.screen_s", "s"),
    ("ec2sim.screen_attempts", "count"),
    ("ec2sim.run_app_s", "s"),
    ("ec2sim.run_app_calls", "count"),
    ("perfmodel.probe_s", "s"),
    ("perfmodel.fit_s", "s"),
    ("binpack.pack_s", "s"),
    ("binpack.pack_items", "count"),
    ("binpack.pack_bins", "count"),
    ("binpack.stream_s", "s"),
    ("binpack.stream_seals", "count"),
    ("binpack.container_write_s", "s"),
    ("binpack.container_parse_s", "s"),
    ("binpack.container_get_s", "s"),
    ("binpack.container_members", "count"),
    ("binpack.container_bytes", "bytes"),
    ("provision.plan_s", "s"),
    ("provision.execute_s", "s"),
    ("textapps.grep_s", "s"),
    ("textapps.grep_matches", "count"),
    ("sched.run_trace_s", "s"),
    ("sched.admit_s", "s"),
    ("sched.trace_gen_s", "s"),
    ("sched.deferrals", "count"),
    ("sched.dispatched", "count"),
    ("sched.rejected", "count"),
    ("sched.warm_hits", "count"),
    ("sched.cold_launches", "count"),
    ("market.plan_on_family_s", "s"),
    ("obs.events", "count"),
    ("obs.ndjson_bytes", "bytes"),
    ("obs.to_ndjson_s", "s"),
    ("obs.record_overhead_s", "s"),
    ("core.unattributed_s", "s"),
    ("bench.trace_overhead_s", "s"),
];

/// Per-layer metrics only `aggregate_terms` has. That workload runs and
/// checks like the others but is not gated (see NOTES.md), so these go to
/// the printed table and the result file, not to the last line.
const UNGATED_PER_LAYER: [(&str, &str); 6] = [
    ("provision.shuffle_movements_s", "s"),
    ("provision.plan_shuffle_s", "s"),
    ("provision.execute_shuffle_s", "s"),
    ("provision.shuffle_transfers", "count"),
    ("provision.shuffle_bytes", "bytes"),
    ("textapps.map_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_one(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Worker count for the data-parallel stages: one per available core.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_one(args: &Args) -> Result<bool, String> {
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace);
    let workers = workers();
    let started = std::time::Instant::now();
    let outcome = match args.workload.as_str() {
        "paper_grep" => paper_grep::run(&mut ctx, workers),
        "tenant_burst" => tenant_burst::run(&mut ctx),
        "ingest_containers" => ingest_containers::run(&mut ctx),
        "aggregate_terms" => aggregate_terms::run(&mut ctx),
        other => return Err(format!("unknown workload {other}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            ctx.checks.check("workload runs", false, || e);
            Outcome::default()
        }
    };
    let peak_rss_mb = match ctx.peak_rss_mb.clone() {
        Ok(mb) => mb,
        Err(e) => {
            ctx.checks.check("peak memory is known", false, || e);
            f64::NAN
        }
    };
    let wall_s = started.elapsed().as_secs_f64();

    let e2e = end_to_end(&ctx, &outcome, peak_rss_mb);
    let layer = if args.trace {
        per_layer(&ctx, &outcome)?
    } else {
        Vec::new()
    };
    let correct = ctx.checks.failed == 0;

    print_table(args, &ctx, &outcome, &e2e, &layer);
    let path = write_result(args, workers, wall_s, &ctx, &outcome, &e2e, &layer)?;
    println!("full result: {path}");
    for f in &ctx.checks.failures {
        println!("CHECK FAILED: {f}");
    }

    let (wanted, source): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, &layer)
    } else {
        (&END_TO_END, &e2e)
    };
    let metrics = wanted
        .iter()
        .map(|&(name, unit)| {
            let m = source
                .iter()
                .find(|m| m.name == name && m.unit == unit)
                .ok_or(format!("metric {name} ({unit}) was not measured"))?;
            Ok((
                m.name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::String(m.unit.into())),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let last = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(ctx.checks.attempted.max(1))),
        ("failed".into(), Value::U64(ctx.checks.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&last).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

/// Every end-to-end metric the workload has, in table order.
fn end_to_end(ctx: &Ctx, outcome: &Outcome, peak_rss_mb: f64) -> Vec<Metric> {
    let rep_s = median_or_nan(&ctx.plain_secs);
    let setup_s = median_or_nan(&ctx.setup_secs) + ctx.warmup_secs;
    let mut out = vec![metric("items_per_s", "1/s", outcome.items as f64 / rep_s)];
    if let Some(bytes) = outcome.payload_bytes {
        out.push(metric(
            "payload_mb_per_s",
            "MB/s",
            bytes as f64 / 1e6 / rep_s,
        ));
    }
    out.push(metric("setup_s", "s", setup_s));
    out.push(metric("peak_rss_mb", "MB", peak_rss_mb));
    out.extend(outcome.sim.iter().copied());
    let checks = &ctx.checks;
    out.push(metric(
        "fail_rate",
        "ratio",
        checks.failed as f64 / checks.attempted.max(1) as f64,
    ));
    out
}

/// Every per-layer metric: the gated list, 0 where the workload never
/// calls the layer, then any ungated ones the workload measured.
fn per_layer(ctx: &Ctx, outcome: &Outcome) -> Result<Vec<Metric>, String> {
    let mut measured = outcome.layer.clone();
    measured.push(metric(
        "core.unattributed_s",
        "s",
        ctx.tracer.self_time(trace::Phase::Traced, ROOT),
    ));
    measured.push(metric(
        "bench.trace_overhead_s",
        "s",
        ctx.tracer.total(trace::Phase::Traced, ROOT) - median_or_nan(&ctx.plain_secs),
    ));
    let known = |m: &Metric| {
        PER_LAYER
            .iter()
            .chain(&UNGATED_PER_LAYER)
            .any(|&(n, u)| n == m.name && u == m.unit)
    };
    if let Some(m) = measured.iter().find(|m| !known(m)) {
        return Err(format!(
            "per-layer metric {} ({}) is in neither list",
            m.name, m.unit
        ));
    }
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER.iter().chain(&UNGATED_PER_LAYER) {
        let found: Vec<&Metric> = measured.iter().filter(|m| m.name == *name).collect();
        match found.as_slice() {
            [] if PER_LAYER.contains(&(name, unit)) => out.push(metric(name, unit, 0.0)),
            [] => {}
            [m] => out.push(**m),
            _ => return Err(format!("per-layer metric {name} reported twice")),
        }
    }
    Ok(out)
}

fn median_or_nan(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        stats::median(values)
    }
}

/// The commit of the checkout, when it is a git repository.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

fn print_table(args: &Args, ctx: &Ctx, outcome: &Outcome, e2e: &[Metric], layer: &[Metric]) {
    println!(
        "workload {} seed {} trace {}: {} {} per repetition, {} untraced and {} traced repetitions",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.items,
        outcome.item,
        ctx.plain_secs.len(),
        ctx.traced_secs.len(),
    );
    for m in e2e.iter().chain(layer) {
        println!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.predictions {
        println!(
            "  prediction {}: {} ({})",
            if p.held { "held" } else { "did not hold" },
            p.claim,
            p.evidence
        );
    }
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::F64(m.value)),
                        ("unit".into(), Value::String(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn floats(v: &[f64]) -> Value {
    Value::Array(v.iter().map(|x| Value::F64(*x)).collect())
}

fn write_result(
    args: &Args,
    workers: usize,
    wall_s: f64,
    ctx: &Ctx,
    outcome: &Outcome,
    e2e: &[Metric],
    layer: &[Metric],
) -> Result<String, String> {
    let host = Value::Object(vec![
        ("nproc".into(), Value::U64(workers as u64)),
        ("workers".into(), Value::U64(workers as u64)),
        (
            "rustc".into(),
            Value::String(env!("PERFBENCH_RUSTC").into()),
        ),
        (
            "profile".into(),
            Value::String(env!("PERFBENCH_PROFILE").into()),
        ),
        ("git_commit".into(), Value::String(git_commit())),
    ]);
    let checks = &ctx.checks;
    let result = Value::Object(vec![
        ("workload".into(), Value::String(args.workload.clone())),
        ("seed".into(), Value::U64(args.seed)),
        ("held_out_seed".into(), Value::U64(HELD_OUT_SEED)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("host".into(), host),
        (
            "params".into(),
            Value::Object(
                outcome
                    .params
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
        ("item".into(), Value::String(outcome.item.into())),
        ("items_per_rep".into(), Value::U64(outcome.items)),
        ("wall_s".into(), Value::F64(wall_s)),
        ("setup_secs".into(), floats(&ctx.setup_secs)),
        ("warmup_s".into(), Value::F64(ctx.warmup_secs)),
        ("untraced_rep_secs".into(), floats(&ctx.plain_secs)),
        ("traced_rep_secs".into(), floats(&ctx.traced_secs)),
        ("end_to_end".into(), metrics_value(e2e)),
        ("per_layer".into(), metrics_value(layer)),
        ("attempted".into(), Value::U64(checks.attempted)),
        ("failed".into(), Value::U64(checks.failed)),
        (
            "failures".into(),
            Value::Array(
                checks
                    .failures
                    .iter()
                    .map(|f| Value::String(f.clone()))
                    .collect(),
            ),
        ),
        (
            "predictions".into(),
            Value::Array(
                outcome
                    .predictions
                    .iter()
                    .map(|p| {
                        Value::Object(vec![
                            ("claim".into(), Value::String(p.claim.into())),
                            ("held".into(), Value::Bool(p.held)),
                            ("evidence".into(), Value::String(p.evidence.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("spans".into(), ctx.tracer.to_value()),
    ]);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let text = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(path)
}

/// Run every workload at the given seed and at the held-out seed, each in
/// its own child process so peak memory is per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut seeds = vec![args.seed];
    if args.seed != HELD_OUT_SEED {
        seeds.push(HELD_OUT_SEED);
    }
    let mut failed = Vec::new();
    for seed in &seeds {
        for workload in WORKLOADS {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => failed.push(format!("{workload} seed {seed}: {s}")),
                Err(e) => failed.push(format!("{workload} seed {seed}: {e}")),
            }
        }
    }
    if failed.is_empty() {
        println!("all workloads passed their checks at seeds {seeds:?}");
        ExitCode::SUCCESS
    } else {
        println!("FAILED: {}", failed.join("; "));
        ExitCode::FAILURE
    }
}
