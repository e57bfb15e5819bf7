//! Differential test of the one-pass grep scan against a per-line
//! reference: split on `\n`, count leftmost non-overlapping matches in each
//! line with a naive window scan, keep the lines that match. Both must
//! agree on every `GrepOutcome` field, for `run` and `run_many`, with and
//! without line capture.
//!
//! The alphabet `{a, b, \n}` and the patterns (one that overlaps itself,
//! one with a border, one spanning a newline) keep lines short and matches
//! dense, so line boundaries, adjacent matches and empty lines all occur.

use proptest::prelude::*;
use textapps::{Grep, GrepOutcome};

const PATTERNS: [&str; 4] = ["a", "aa", "aba", "a\nb"];

/// Leftmost non-overlapping occurrences of `pat` in `line`, by brute force.
fn naive_count(line: &[u8], pat: &[u8]) -> usize {
    let mut n = 0;
    let mut i = 0;
    while i + pat.len() <= line.len() {
        if &line[i..i + pat.len()] == pat {
            n += 1;
            i += pat.len();
        } else {
            i += 1;
        }
    }
    n
}

fn per_line_reference(input: &[u8], pat: &str, capture: bool) -> GrepOutcome {
    let mut outcome = GrepOutcome {
        matching_lines: 0,
        occurrences: 0,
        bytes_scanned: input.len() as u64,
        lines: Vec::new(),
    };
    for line in input.split(|&b| b == b'\n') {
        let c = naive_count(line, pat.as_bytes());
        if c > 0 {
            outcome.matching_lines += 1;
            outcome.occurrences += c;
            if capture {
                outcome
                    .lines
                    .push(String::from_utf8_lossy(line).into_owned());
            }
        }
    }
    outcome
}

fn grep(pat: &str, capture: bool) -> Grep {
    let g = Grep::new(pat);
    if capture {
        g.capturing_lines()
    } else {
        g
    }
}

fn haystack() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"ab\n".to_vec()), 0..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn run_equals_the_per_line_reference(
        hay in haystack(),
        pat in prop::sample::select(PATTERNS.to_vec()),
        capture in any::<bool>(),
    ) {
        prop_assert_eq!(
            grep(pat, capture).run(&hay),
            per_line_reference(&hay, pat, capture)
        );
    }

    #[test]
    fn run_many_equals_the_per_line_reference(
        hays in prop::collection::vec(haystack(), 0..6),
        pat in prop::sample::select(PATTERNS.to_vec()),
        capture in any::<bool>(),
    ) {
        let mut expected = per_line_reference(b"", pat, capture);
        for hay in &hays {
            let o = per_line_reference(hay, pat, capture);
            expected.matching_lines += o.matching_lines;
            expected.occurrences += o.occurrences;
            expected.bytes_scanned += o.bytes_scanned;
            expected.lines.extend(o.lines);
        }
        let got = grep(pat, capture).run_many(hays.iter().map(Vec::as_slice));
        prop_assert_eq!(got, expected);
    }
}
