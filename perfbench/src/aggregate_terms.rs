//! `aggregate_terms`: a distributed term count over small text files.
//!
//! `provision::execute_aggregation` plans the map fleet with the §5.2
//! adjusted-deadline strategy, picks a data-sharing backend for the
//! shuffle by fitting and inverting per-backend transfer models, then runs
//! map, shuffle and reduce on the simulated fleet. The map and reduce
//! steps tokenize and count the real text of every file.

use crate::harness::{metric, Ctx, Metric, Outcome, Prediction, ROOT};
use crate::trace::{Phase, Tracer};
use corpus::FileSpec;
use ec2sim::{Cloud, CloudConfig};
use obs::Obs;
use perfmodel::Fit;
use provision::{
    execute_aggregation, execute_shuffle_observed, make_plan, map_partials, plan_shuffle,
    shuffle_movements, AggregationReport, ShuffleConfig, Strategy,
};
use serde::Value;
use textapps::aggregate::{oracle, render};
use textapps::{AggKind, AppKind};

/// Small text files, each 1–5 kB (about 2.4 MB in all). Sizes are drawn
/// from the seed without a heavy tail, so the work per file, and with it
/// files per second, does not swing with a few outsized files.
const FILES: u64 = 800;
const MIN_FILE_BYTES: u64 = 1_000;
const MAX_FILE_BYTES: u64 = 5_000;
/// User deadline for the whole aggregation, simulated seconds.
const DEADLINE_S: f64 = 240.0;

/// [`FILES`] files with sizes uniform in the byte range, from the seed.
fn small_files(seed: u64) -> Vec<FileSpec> {
    let mut state = seed ^ 0x4147_4752_4547_4154; // "AGGREGAT"
    (0..FILES)
        .map(|id| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            FileSpec::new(
                id,
                MIN_FILE_BYTES + z % (MAX_FILE_BYTES - MIN_FILE_BYTES + 1),
            )
        })
        .collect()
}

fn cloud(seed: u64) -> Cloud {
    Cloud::new(CloudConfig {
        seed,
        ..CloudConfig::default()
    })
}

/// `execute_aggregation` re-composed from its public steps with a span
/// around each. Also returns the map bins, for timing the map on its own.
fn traced_aggregation(
    cfg: &ShuffleConfig,
    files: &[FileSpec],
    fit: &Fit,
    seed: u64,
    t: &mut Tracer,
) -> Result<(AggregationReport, Vec<Vec<FileSpec>>), String> {
    let plan = t
        .span("provision.plan", |_| {
            make_plan(
                Strategy::AdjustedDeadline { p_miss: cfg.p_miss },
                files,
                fit,
                DEADLINE_S,
            )
        })
        .map_err(|e| format!("plan failed: {e:?}"))?;
    let bins: Vec<Vec<FileSpec>> = plan.instances.iter().map(|i| i.files.clone()).collect();
    let movements = t.span("provision.shuffle_movements", |_| {
        shuffle_movements(cfg, &bins)
    });
    let budget = (DEADLINE_S - plan.predicted_makespan()).max(0.0);
    let shuffle_plan = t.span("provision.plan_shuffle", |_| {
        plan_shuffle(&movements, budget, cfg.p_miss, cfg.seed)
    });
    let mut cloud = cloud(seed);
    let exec = t
        .span("provision.execute_shuffle", |_| {
            execute_shuffle_observed(
                &mut cloud,
                cfg,
                &plan,
                shuffle_plan.backend,
                &Obs::default(),
            )
        })
        .map_err(|e| format!("shuffle failed: {e}"))?;
    Ok((
        AggregationReport {
            plan: shuffle_plan,
            exec,
        },
        bins,
    ))
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let seed = ctx.seed;
    let files = ctx.setup(|t| t.span("corpus.manifest", |_| small_files(seed)));
    let cfg = ShuffleConfig {
        kind: AggKind::TermCount,
        corpus_seed: seed,
        seed,
        ..ShuffleConfig::default()
    };
    let fit = sched::reference_fit(AppKind::PosTag);
    let payload_bytes: u64 = files.iter().map(|f| f.size).sum();

    let reference = ctx
        .warmup(|| execute_aggregation(&mut cloud(seed), &cfg, &files, &fit, DEADLINE_S))
        .map_err(|e| format!("aggregation failed: {e}"))?;
    // The sequential single-node oracle, outside every timed region.
    let expected = render(&oracle(cfg.kind, cfg.corpus_seed, &files));
    ctx.checks.check(
        "output equals the oracle",
        reference.exec.output() == expected,
        || "the distributed term count differs from the sequential oracle".into(),
    );
    let reference_sim = sim(&reference);

    ctx.measure(
        || {
            execute_aggregation(&mut cloud(seed), &cfg, &files, &fit, DEADLINE_S)
                .map_err(|e| e.to_string())
        },
        |t| {
            let (report, bins) =
                t.span(ROOT, |t| traced_aggregation(&cfg, &files, &fit, seed, t))?;
            t.span("textapps.map", |_| {
                std::hint::black_box(map_partials(cfg.kind, cfg.corpus_seed, &bins))
            });
            Ok(report)
        },
        |checks, out| match out {
            Ok(report) => {
                checks.same_sim(&reference_sim, &sim(&report));
                checks.check("report repeats", report == reference, || {
                    "a repetition or the re-composed aggregation differs from the first run".into()
                });
            }
            Err(e) => checks.check("aggregation runs", false, || e),
        },
    );

    let exec = &reference.exec;
    let mut out = Outcome {
        item: "files",
        items: files.len() as u64,
        payload_bytes: Some(payload_bytes),
        sim: reference_sim,
        params: vec![
            ("files", Value::U64(files.len() as u64)),
            ("payload_bytes", Value::U64(payload_bytes)),
            ("deadline_s", Value::F64(DEADLINE_S)),
            ("backend", Value::String(format!("{:?}", exec.backend))),
            ("map_shares", Value::U64(exec.map_shares as u64)),
            ("reduce_bins", Value::U64(exec.reduce_bins as u64)),
        ],
        ..Outcome::default()
    };
    if ctx.traced() {
        let tr = &ctx.tracer;
        let map_s = tr.total(Phase::Traced, "textapps.map");
        let rep_s = tr.total(Phase::Traced, ROOT);
        out.layer = vec![
            metric(
                "corpus.manifest_s",
                "s",
                tr.total(Phase::Setup, "corpus.manifest"),
            ),
            metric(
                "provision.plan_s",
                "s",
                tr.total(Phase::Traced, "provision.plan"),
            ),
            metric(
                "provision.shuffle_movements_s",
                "s",
                tr.total(Phase::Traced, "provision.shuffle_movements"),
            ),
            metric(
                "provision.plan_shuffle_s",
                "s",
                tr.total(Phase::Traced, "provision.plan_shuffle"),
            ),
            metric(
                "provision.execute_shuffle_s",
                "s",
                tr.total(Phase::Traced, "provision.execute_shuffle"),
            ),
            metric(
                "provision.shuffle_transfers",
                "count",
                exec.transfers as f64,
            ),
            metric(
                "provision.shuffle_bytes",
                "bytes",
                exec.bytes_shuffled as f64,
            ),
            metric("textapps.map_s", "s", map_s),
        ];
        out.predictions.push(Prediction {
            claim: "2 x textapps.map_s covers most (> 50 %) of aggregate_terms",
            held: 2.0 * map_s > 0.5 * rep_s,
            evidence: format!(
                "map on its own {map_s:.4} s, whole aggregation {rep_s:.4} s: 2 x map = {:.1} %",
                200.0 * map_s / rep_s
            ),
        });
    }
    Ok(out)
}

/// Simulated outcome; deterministic for a seed.
fn sim(report: &AggregationReport) -> Vec<Metric> {
    let exec = &report.exec;
    vec![
        metric("sim_cost_usd", "$", exec.total_cost()),
        metric("sim_makespan_s", "s", exec.makespan_secs),
        metric(
            "sim_miss_rate",
            "ratio",
            if exec.met_deadline() { 0.0 } else { 1.0 },
        ),
    ]
}
