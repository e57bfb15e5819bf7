//! Container-format tests: byte-level round-trip properties, index/linear
//! agreement, the four committed corruption fixtures (truncated footer,
//! bad magic, payload CRC mismatch, overlapping-extent index) — each must
//! be rejected with its typed `ContainerError`, never a panic — a
//! differential check of the slicing-by-8 CRC against a bytewise
//! reference, and a mutation fuzz over valid multi-member containers.
//!
//! The fixtures live in `tests/fixtures/container/` and are committed so
//! the on-disk format is pinned: the tests rebuild each corruption in
//! memory from the writer and assert the bytes match the committed file
//! bit-for-bit, so any silent format drift fails loudly. Regenerate them
//! (after a deliberate, version-bumped format change) with
//! `cargo test -p binpack --test container_format -- --ignored`.

use std::path::PathBuf;

use binpack::container::Crc32;
use binpack::{
    crc32, member_name_hash, Container, ContainerError, ContainerWriter, FORMAT_VERSION, MAGIC,
};
use proptest::prelude::*;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("container")
}

fn fixture(name: &str) -> Vec<u8> {
    let path = fixture_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// The base container every corruption derives from: three members with
/// distinct sizes (including an empty one).
fn base_container() -> Vec<u8> {
    let mut w = ContainerWriter::new();
    w.add("docs/alpha.txt", b"alpha-payload-bytes").unwrap();
    w.add("docs/beta.txt", b"").unwrap();
    w.add("img/gamma.bin", &[0xA5u8; 64]).unwrap();
    w.finish()
}

/// Corruption 1: blob cut off before the footer is even complete.
fn make_truncated_footer() -> Vec<u8> {
    base_container()[..20].to_vec()
}

/// Corruption 2: the trailing magic is not ours.
fn make_bad_magic() -> Vec<u8> {
    let mut blob = base_container();
    let n = blob.len();
    blob[n - 8..].copy_from_slice(b"NOTACONT");
    blob
}

/// Corruption 3: one payload byte flipped. The footer CRC covers only the
/// metadata, so parsing succeeds; the member read fails its recorded CRC.
fn make_crc_mismatch() -> Vec<u8> {
    let mut blob = base_container();
    blob[0] ^= 0xFF;
    blob
}

/// Corruption 4: a hand-built index whose second entry overlaps the first,
/// with a *correct* footer CRC — structural validation must catch it after
/// the checksums pass.
fn make_overlapping_extent() -> Vec<u8> {
    let payload = b"aaaabbbb";
    let entries: [(u64, u64, u64); 2] = [
        (member_name_hash("a"), 0, 4),
        (member_name_hash("b"), 2, 4), // overlaps [0,4)
    ];
    let mut blob = payload.to_vec();
    let index_offset = blob.len() as u64;
    let index_start = blob.len();
    for &(hash, offset, len) in &entries {
        blob.extend_from_slice(&hash.to_le_bytes());
        blob.extend_from_slice(&offset.to_le_bytes());
        blob.extend_from_slice(&len.to_le_bytes());
        let start = usize::try_from(offset).unwrap();
        let end = usize::try_from(offset + len).unwrap();
        blob.extend_from_slice(&crc32(&payload[start..end]).to_le_bytes());
    }
    let mut footer_head = Vec::new();
    footer_head.extend_from_slice(&index_offset.to_le_bytes());
    footer_head.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    footer_head.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    let mut crc_input = blob[index_start..].to_vec();
    crc_input.extend_from_slice(&footer_head);
    blob.extend_from_slice(&footer_head);
    blob.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    blob.extend_from_slice(&MAGIC);
    blob
}

type FixtureMaker = fn() -> Vec<u8>;

const FIXTURES: [(&str, FixtureMaker); 4] = [
    ("truncated_footer.bin", make_truncated_footer),
    ("bad_magic.bin", make_bad_magic),
    ("crc_mismatch.bin", make_crc_mismatch),
    ("overlapping_extent.bin", make_overlapping_extent),
];

/// One-time generator for the committed fixtures. `#[ignore]`d: run
/// explicitly only when the format version changes deliberately.
#[test]
#[ignore = "writes the committed corruption fixtures; run only on a deliberate format change"]
fn regenerate_fixtures() {
    std::fs::create_dir_all(fixture_dir()).unwrap();
    for (name, make) in FIXTURES {
        std::fs::write(fixture_dir().join(name), make()).unwrap();
    }
}

#[test]
fn committed_fixtures_match_the_current_format() {
    // Format-drift pin: each committed fixture must be exactly what the
    // current writer + corruption recipe produce.
    for (name, make) in FIXTURES {
        assert_eq!(
            fixture(name),
            make(),
            "{name} drifted from the current container format — if the \
             format changed deliberately, bump FORMAT_VERSION and regenerate"
        );
    }
}

#[test]
fn truncated_footer_fixture_is_rejected_typed() {
    let err = Container::parse(&fixture("truncated_footer.bin")).unwrap_err();
    assert_eq!(err, ContainerError::TruncatedFooter { len: 20 });
}

#[test]
fn bad_magic_fixture_is_rejected_typed() {
    let err = Container::parse(&fixture("bad_magic.bin")).unwrap_err();
    assert_eq!(
        err,
        ContainerError::BadMagic {
            found: *b"NOTACONT"
        }
    );
}

#[test]
fn crc_mismatch_fixture_is_rejected_typed() {
    // Metadata parses (the footer CRC covers index + footer only) …
    let blob = fixture("crc_mismatch.bin");
    let c = Container::parse(&blob).expect("metadata intact");
    // … but the corrupt member fails its CRC on access, typed, no panic.
    let err = c.member(0).unwrap_err();
    assert!(
        matches!(err, ContainerError::MemberCrcMismatch { member: 0, .. }),
        "wrong error: {err:?}"
    );
    assert!(matches!(
        c.get("docs/alpha.txt").unwrap_err(),
        ContainerError::MemberCrcMismatch { .. }
    ));
    assert!(c.verify().is_err());
    // The untouched members still read fine.
    assert_eq!(c.member(1).unwrap(), b"");
    assert_eq!(c.member(2).unwrap(), &[0xA5u8; 64][..]);
}

#[test]
fn overlapping_extent_fixture_is_rejected_typed() {
    let err = Container::parse(&fixture("overlapping_extent.bin")).unwrap_err();
    assert_eq!(
        err,
        ContainerError::OverlappingExtent {
            first: 0,
            second: 1
        }
    );
}

#[test]
fn every_corruption_error_displays() {
    // Display must be total over the fixture errors (no panics, no blanks).
    for (name, _) in FIXTURES {
        let blob = fixture(name);
        let msg = match Container::parse(&blob) {
            Err(e) => e.to_string(),
            Ok(c) => c.verify().unwrap_err().to_string(),
        };
        assert!(!msg.is_empty(), "{name} produced an empty error message");
    }
}

#[test]
fn footer_crc_corruption_is_rejected_at_parse() {
    // Flip a byte inside the index: the footer CRC must catch it before
    // any extent is trusted.
    let mut blob = base_container();
    let n = blob.len();
    blob[n - 40] ^= 0x01; // inside the index region
    assert!(matches!(
        Container::parse(&blob).unwrap_err(),
        ContainerError::FooterCrcMismatch { .. }
    ));
}

#[test]
fn unsupported_version_is_rejected_typed() {
    let mut blob = base_container();
    let n = blob.len();
    blob[n - 16..n - 12].copy_from_slice(&99u32.to_le_bytes());
    assert_eq!(
        Container::parse(&blob).unwrap_err(),
        ContainerError::UnsupportedVersion { found: 99 }
    );
}

#[test]
fn bogus_geometry_is_rejected_typed() {
    // A footer claiming more members than the blob can hold.
    let mut blob = base_container();
    let n = blob.len();
    let footer_at = n - 32;
    blob[footer_at + 8..footer_at + 16].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        Container::parse(&blob).unwrap_err(),
        ContainerError::IndexOutOfBounds { .. }
    ));
}

/// Deterministic member payload for property cases: size and a content
/// tag derived from the member index.
fn payload_for(i: usize, size: usize) -> Vec<u8> {
    (0..size).map(|j| ((i * 31 + j * 7) % 251) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Round-trip: write → parse recovers every member byte-for-byte, by
    /// index and by name.
    #[test]
    fn roundtrip_recovers_every_member(sizes in prop::collection::vec(0usize..600, 0..40)) {
        let mut w = ContainerWriter::new();
        let mut expect = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let name = format!("member/{i}.dat");
            let payload = payload_for(i, size);
            w.add(&name, &payload).unwrap();
            expect.push((name, payload));
        }
        let blob = w.finish();
        let c = Container::parse(&blob).unwrap();
        prop_assert_eq!(c.member_count(), expect.len());
        c.verify().unwrap();
        for (i, (name, payload)) in expect.iter().enumerate() {
            prop_assert_eq!(c.member(i).unwrap(), &payload[..]);
            prop_assert_eq!(c.get(name).unwrap(), &payload[..]);
        }
        prop_assert!(matches!(
            c.get("no/such/member"),
            Err(ContainerError::MemberNotFound { .. })
        ));
    }

    /// The index agrees with a linear scan: entries are laid out in add
    /// order, contiguous from offset 0, with lengths and CRCs matching the
    /// payloads they cover.
    #[test]
    fn index_agrees_with_linear_scan(sizes in prop::collection::vec(0usize..600, 0..40)) {
        let mut w = ContainerWriter::new();
        for (i, &size) in sizes.iter().enumerate() {
            w.add(&format!("m{i}"), &payload_for(i, size)).unwrap();
        }
        let blob = w.finish();
        let c = Container::parse(&blob).unwrap();
        let mut cursor = 0u64;
        for (i, e) in c.entries().iter().enumerate() {
            prop_assert_eq!(e.name_hash, member_name_hash(&format!("m{i}")));
            prop_assert_eq!(e.offset, cursor, "member {} not contiguous", i);
            prop_assert_eq!(e.len, sizes[i] as u64);
            let start = usize::try_from(e.offset).unwrap();
            let end = start + sizes[i];
            prop_assert_eq!(e.crc, crc32(&blob[start..end]));
            cursor += e.len;
        }
        prop_assert_eq!(c.payload_bytes(), cursor);
    }

    /// Writer output is a pure function of the (name, payload) sequence.
    #[test]
    fn writer_is_deterministic(sizes in prop::collection::vec(0usize..200, 0..20)) {
        let build = || {
            let mut w = ContainerWriter::new();
            for (i, &size) in sizes.iter().enumerate() {
                w.add(&format!("m{i}"), &payload_for(i, size)).unwrap();
            }
            w.finish()
        };
        prop_assert_eq!(build(), build());
    }

    /// Any single truncation of a valid container is rejected with a typed
    /// error — never a panic, never a silent partial parse.
    #[test]
    fn any_truncation_is_rejected(cut in 1usize..100) {
        // base_container() is ~200 bytes, so every cut in range is valid.
        let blob = base_container();
        let truncated = &blob[..blob.len() - cut];
        let err = Container::parse(truncated).unwrap_err();
        // Which typed error depends on where the cut lands; all are fine,
        // a panic or an Ok is not.
        prop_assert!(!err.to_string().is_empty());
    }
}

/// Bytewise table-driven CRC-32 (IEEE), the textbook form the library's
/// slicing-by-8 kernel must reproduce.
fn reference_crc32(bytes: &[u8]) -> u32 {
    let table: Vec<u32> = (0..256u32)
        .map(|i| {
            (0..8).fold(i, |c, _| {
                if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                }
            })
        })
        .collect();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[usize::from(b ^ c.to_le_bytes()[0])] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[test]
fn reference_crc32_matches_known_vectors() {
    // Anchors the reference the differential property compares against.
    assert_eq!(reference_crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(
        reference_crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
}

/// A multi-member container from payload sizes, plus its member names.
fn container_of(sizes: &[usize]) -> (Vec<u8>, Vec<String>) {
    let mut w = ContainerWriter::new();
    let names: Vec<String> = (0..sizes.len()).map(|i| format!("member/{i}")).collect();
    for (i, (name, &size)) in names.iter().zip(sizes).enumerate() {
        w.add(name, &payload_for(i, size)).unwrap();
    }
    (w.finish(), names)
}

/// Recompute the footer CRC over whatever index the (possibly mutated)
/// footer now points at, so a mutation gets past the checksum and reaches
/// the structural checks behind it.
fn reseal_footer(blob: &mut [u8]) {
    let n = blob.len();
    if n < 32 {
        return;
    }
    let mut at = [0u8; 8];
    at.copy_from_slice(&blob[n - 32..n - 24]);
    if let Ok(index_start) = usize::try_from(u64::from_le_bytes(at)) {
        if index_start <= n - 32 {
            let crc = crc32(&blob[index_start..n - 12]);
            blob[n - 12..n - 8].copy_from_slice(&crc.to_le_bytes());
        }
    }
}

/// Parse `blob` and exercise every read path. Any outcome is fine as long
/// as it is `Ok` or a typed error that displays; a panic fails the test.
/// A container that parses must keep every extent inside its payload and
/// every name hash unique.
fn read_everything(blob: &[u8], names: &[String]) {
    let c = match Container::parse(blob) {
        Ok(c) => c,
        Err(e) => {
            assert!(!e.to_string().is_empty());
            return;
        }
    };
    for e in c.entries() {
        let end = e.offset.checked_add(e.len);
        assert!(end.is_some_and(|end| end <= c.payload_bytes()), "{e:?}");
    }
    let mut hashes: Vec<u64> = c.entries().iter().map(|e| e.name_hash).collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), c.member_count(), "duplicate name hash parsed");
    for i in 0..c.member_count() + 1 {
        if let Err(e) = c.member(i) {
            assert!(!e.to_string().is_empty());
        }
    }
    for name in names.iter().map(String::as_str).chain(["no/such/member"]) {
        if let Err(e) = c.get(name) {
            assert!(!e.to_string().is_empty());
        }
    }
    if let Err(e) = c.verify() {
        assert!(!e.to_string().is_empty());
    }
}

/// `(offset, width)` of every index and footer field except the magic, in
/// a valid container of `members` members.
fn metadata_fields(blob_len: usize, members: usize) -> Vec<(usize, usize)> {
    let footer = blob_len - 32;
    let index_start = footer - 28 * members;
    let mut fields = Vec::new();
    for at in (0..members).map(|i| index_start + 28 * i) {
        fields.extend([(at, 8), (at + 8, 8), (at + 16, 8), (at + 24, 4)]);
    }
    fields.extend([
        (footer, 8),
        (footer + 8, 8),
        (footer + 16, 4),
        (footer + 20, 4),
    ]);
    fields
}

/// A forged field value: an edge case three times in four (small, near
/// `u64::MAX`, just under the blob length), otherwise the raw pick.
fn forged_value(pick: u64, blob_len: u64) -> u64 {
    let small = (pick >> 8) % 64;
    match pick % 4 {
        0 => small,
        1 => u64::MAX - small,
        2 => blob_len.saturating_sub(small),
        _ => pick,
    }
}

/// One mutation of a valid container of `members` members, driven by
/// `picks` (1–8 random words). `kind` 0 overwrites one arbitrary byte per
/// pick; 1 does the same and then reseals the footer CRC; 2 forges one
/// index or footer field per pick (an edge value, or a copy of the same
/// field of the previous entry) and reseals, so the mutation reaches the
/// structural checks behind the checksum; 3 truncates at an arbitrary
/// point; 4 appends the picks' bytes after the magic.
fn mutate(mut blob: Vec<u8>, members: usize, kind: u8, picks: &[u64]) -> Vec<u8> {
    let len = blob.len() as u64;
    match kind {
        0 | 1 => {
            for &pick in picks {
                let at = usize::try_from(pick % len).unwrap();
                blob[at] = pick.to_le_bytes()[7];
            }
            if kind == 1 {
                reseal_footer(&mut blob);
            }
        }
        2 => {
            let fields = metadata_fields(blob.len(), members);
            for &pick in picks {
                let k = usize::try_from(pick >> 32).unwrap() % fields.len();
                let (at, width) = fields[k];
                if pick % 5 == 4 {
                    // The same field of the previous entry: duplicate name
                    // hashes and coinciding extents.
                    let (from, from_width) = fields[(k + fields.len() - 4) % fields.len()];
                    blob.copy_within(from..from + width.min(from_width), at);
                } else {
                    blob[at..at + width]
                        .copy_from_slice(&forged_value(pick, len).to_le_bytes()[..width]);
                }
            }
            reseal_footer(&mut blob);
        }
        3 => blob.truncate(usize::try_from(picks[0] % len).unwrap()),
        _ => blob.extend(picks.iter().flat_map(|p| p.to_le_bytes())),
    }
    blob
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Slicing-by-8 equals the bytewise reference on unaligned slices of
    /// random buffers, one-shot and streamed over arbitrary split points.
    #[test]
    fn crc32_matches_the_bytewise_reference(
        buf in prop::collection::vec(any::<u8>(), 0..4096),
        skip in 0usize..8,
        splits in prop::collection::vec(any::<usize>(), 0..6),
    ) {
        let data = &buf[skip.min(buf.len())..];
        let expected = reference_crc32(data);
        prop_assert_eq!(crc32(data), expected);
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut crc = Crc32::new();
        let mut from = 0;
        for cut in cuts.into_iter().chain([data.len()]) {
            crc.update(&data[from..cut]);
            from = cut;
        }
        prop_assert_eq!(crc.finish(), expected);
    }

    /// Mutating a valid multi-member container never panics any reader:
    /// parse, every member, every lookup and verify return `Ok` or a typed
    /// `ContainerError`.
    #[test]
    fn mutated_containers_never_panic(
        sizes in prop::collection::vec(0usize..300, 2..12),
        kind in 0u8..5,
        picks in prop::collection::vec(any::<u64>(), 1..=8),
    ) {
        let (blob, names) = container_of(&sizes);
        read_everything(&mutate(blob, sizes.len(), kind, &picks), &names);
    }
}
