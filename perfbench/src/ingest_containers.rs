//! `ingest_containers`: small files arrive, stream into bins, and land in
//! indexed containers, which are read back member by member and searched.
//!
//! A Text_400K-shaped manifest is replayed as a seeded arrival trace into
//! a `StreamPacker` that seals whenever the pending segment is full. Every
//! packed bin becomes one container; each container is parsed, every
//! member is fetched by name (one CRC check each), and grep runs over the
//! members read back. Real payload bytes move through every step.

use crate::harness::{metric, Ctx, Outcome, ROOT};
use crate::trace::{Phase, Tracer};
use binpack::{container_from_bin, Container, Item, SealPolicy, StreamConfig, StreamPacker};
use corpus::{ArrivalConfig, ArrivalOrder, IngestTrace, Manifest};
use serde::Value;
use textapps::Grep;

/// Fraction of the 400k-file Text_400K corpus: 4000 files, about 10 MB.
const SCALE: f64 = 0.01;
/// Bin capacity: the unit-file (container) size.
const UNIT_BYTES: u64 = 1_000_000;
/// The packer seals its pending segment at this many bytes.
const SEAL_BYTES: u64 = 8_000_000;
const ARRIVAL: ArrivalConfig = ArrivalConfig {
    mean_interarrival_secs: 0.2,
    order: ArrivalOrder::Shuffled,
};
/// Two syllables of the generator's vocabulary: matches some lines.
const PATTERN: &str = "kati";

struct Input {
    manifest: Manifest,
    /// Payload of file `id` at index `id`.
    payloads: Vec<Vec<u8>>,
    trace: IngestTrace,
}

/// What one repetition produces; equal across repetitions of a seed.
#[derive(Debug, PartialEq)]
struct Ingested {
    containers: Vec<Vec<u8>>,
    /// File ids in each container, in member order.
    member_ids: Vec<Vec<u64>>,
    seals: u64,
    members: u64,
    matches: usize,
    bytes_scanned: u64,
}

fn member_name(item: &Item) -> String {
    format!("doc/{}.txt", item.id)
}

fn ingest(input: &Input, grep: &Grep, t: &mut Tracer) -> Result<Ingested, String> {
    let outcome = t.span("binpack.stream", |_| {
        let mut packer = StreamPacker::new(StreamConfig {
            seal: SealPolicy::bin_full(SEAL_BYTES),
            ..StreamConfig::new(UNIT_BYTES)
        });
        for ev in &input.trace.events {
            packer.admit(Item::new(ev.file.id, ev.file.size), ev.at_secs);
        }
        packer.finish(input.trace.duration_secs())
    });
    let bins = &outcome.packing.bins;
    let containers = t
        .span("binpack.container_write", |_| {
            bins.iter()
                .map(|bin| {
                    container_from_bin(bin, member_name, |item| {
                        input.payloads[item.id as usize].clone()
                    })
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("container write failed: {e}"))?;
    let parsed = t
        .span("binpack.container_parse", |_| {
            containers
                .iter()
                .map(|c| Container::parse(c))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("container parse failed: {e}"))?;
    let read = t
        .span("binpack.container_get", |_| {
            let mut read: Vec<&[u8]> = Vec::with_capacity(input.payloads.len());
            for (c, bin) in parsed.iter().zip(bins) {
                for item in &bin.items {
                    read.push(c.get(&member_name(item))?);
                }
            }
            Ok::<_, binpack::ContainerError>(read)
        })
        .map_err(|e| format!("member read failed: {e}"))?;
    let found = t.span("textapps.grep", |_| grep.run_many(read.iter().copied()));
    Ok(Ingested {
        member_ids: bins
            .iter()
            .map(|b| b.items.iter().map(|i| i.id).collect())
            .collect(),
        seals: outcome.stats.sealed_segments,
        members: read.len() as u64,
        matches: found.occurrences,
        bytes_scanned: found.bytes_scanned,
        containers,
    })
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let seed = ctx.seed;
    let input = ctx.setup(|t| {
        let manifest = t.span("corpus.manifest", |_| corpus::text_400k(SCALE, seed));
        let payloads = t.span("corpus.payload", |_| {
            manifest
                .files
                .iter()
                .map(|f| corpus::text_bytes(seed, f))
                .collect()
        });
        let trace = t.span("corpus.ingest_trace", |_| {
            IngestTrace::generate(&manifest, &ARRIVAL, seed)
        });
        Input {
            manifest,
            payloads,
            trace,
        }
    });
    let positional = input
        .manifest
        .files
        .iter()
        .enumerate()
        .all(|(i, f)| f.id == i as u64);
    if !positional {
        return Err("manifest file ids are not positions".into());
    }
    let grep = Grep::new(PATTERN);
    // Oracle: a plain grep over each generated payload.
    let expected_matches: usize = input.payloads.iter().map(|p| grep.run(p).occurrences).sum();
    let payload_bytes = input.manifest.total_volume();

    let mut quiet = Tracer::new(false);
    let reference = ctx.warmup(|| ingest(&input, &grep, &mut quiet))?;
    verify_read_back(ctx, &input, &reference)?;
    ctx.checks.check(
        "grep over members equals grep over payloads",
        reference.matches == expected_matches && reference.bytes_scanned == payload_bytes,
        || {
            format!(
                "{} matches over {} bytes read back, {expected_matches} over {payload_bytes} generated",
                reference.matches, reference.bytes_scanned
            )
        },
    );

    ctx.measure(
        || ingest(&input, &grep, &mut quiet),
        |t| t.span(ROOT, |t| ingest(&input, &grep, t)),
        |checks, out| match out {
            // Byte-identical to the fully verified first run.
            Ok(got) => checks.check("containers repeat", got == reference, || {
                "a repetition wrote different containers or found different matches".into()
            }),
            Err(e) => checks.check("ingest runs", false, || e),
        },
    );

    let container_bytes: u64 = reference.containers.iter().map(|c| c.len() as u64).sum();
    let mut out = Outcome {
        item: "files",
        items: input.manifest.len() as u64,
        payload_bytes: Some(payload_bytes),
        params: vec![
            ("files", Value::U64(input.manifest.len() as u64)),
            ("payload_bytes", Value::U64(payload_bytes)),
            ("unit_bytes", Value::U64(UNIT_BYTES)),
            ("seal_bytes", Value::U64(SEAL_BYTES)),
            ("containers", Value::U64(reference.containers.len() as u64)),
            ("pattern", Value::String(PATTERN.into())),
        ],
        ..Outcome::default()
    };
    if ctx.traced() {
        let tr = &ctx.tracer;
        out.layer = vec![
            metric(
                "corpus.manifest_s",
                "s",
                tr.total(Phase::Setup, "corpus.manifest"),
            ),
            metric(
                "corpus.payload_s",
                "s",
                tr.total(Phase::Setup, "corpus.payload"),
            ),
            metric(
                "corpus.ingest_trace_s",
                "s",
                tr.total(Phase::Setup, "corpus.ingest_trace"),
            ),
            metric(
                "binpack.stream_s",
                "s",
                tr.total(Phase::Traced, "binpack.stream"),
            ),
            metric("binpack.stream_seals", "count", reference.seals as f64),
            metric(
                "binpack.container_write_s",
                "s",
                tr.total(Phase::Traced, "binpack.container_write"),
            ),
            metric(
                "binpack.container_parse_s",
                "s",
                tr.total(Phase::Traced, "binpack.container_parse"),
            ),
            metric(
                "binpack.container_get_s",
                "s",
                tr.total(Phase::Traced, "binpack.container_get"),
            ),
            metric(
                "binpack.container_members",
                "count",
                reference.members as f64,
            ),
            metric("binpack.container_bytes", "bytes", container_bytes as f64),
            metric(
                "textapps.grep_s",
                "s",
                tr.total(Phase::Traced, "textapps.grep"),
            ),
            metric("textapps.grep_matches", "count", reference.matches as f64),
        ];
    }
    Ok(out)
}

/// Every member of every container, fetched by name, equals the payload
/// generated for that file, and every file is in exactly one container.
fn verify_read_back(ctx: &mut Ctx, input: &Input, got: &Ingested) -> Result<(), String> {
    let mut seen = vec![0u32; input.payloads.len()];
    let mut mismatched = 0usize;
    for (blob, ids) in got.containers.iter().zip(&got.member_ids) {
        let c = Container::parse(blob).map_err(|e| format!("re-parse failed: {e}"))?;
        if c.member_count() != ids.len() {
            mismatched += 1;
        }
        for &id in ids {
            let name = member_name(&Item::new(id, 0));
            let bytes = c
                .get(&name)
                .map_err(|e| format!("re-read of {name} failed: {e}"))?;
            let slot = usize::try_from(id).map_err(|_| format!("file id {id} out of range"))?;
            match (input.payloads.get(slot), seen.get_mut(slot)) {
                (Some(p), Some(n)) => {
                    *n += 1;
                    if p.as_slice() != bytes {
                        mismatched += 1;
                    }
                }
                _ => return Err(format!("container holds unknown file {id}")),
            }
        }
    }
    let not_once = seen.iter().filter(|&&n| n != 1).count();
    ctx.checks.check(
        "every member read back equals its payload",
        mismatched == 0 && not_once == 0,
        || format!("{mismatched} mismatched members, {not_once} files not stored exactly once"),
    );
    Ok(())
}
