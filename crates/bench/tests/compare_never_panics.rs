//! `bench --compare` reads files a user names, so any bytes must come back
//! as `Ok` or `Err`, never as a panic. For each committed `BENCH_*.json`,
//! every prefix cut and a fixed budget of seeded single-byte edits
//! (replace, insert, delete) are compared against the unedited file in
//! both orders.

use agnn_bench::compare::compare_reports;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const ARTIFACTS: [&str; 4] = ["BENCH_kernels.json", "BENCH_infer.json", "BENCH_topk.json", "BENCH_serve.json"];

/// Seeded edits per artifact.
const EDITS: usize = 1_000;

/// Bytes that steer the reader into its branches: structure, numbers,
/// literals, escapes, plus one invalid UTF-8 byte.
const ALPHABET: &[u8] = b"{}[]\",:-+.0123456789eEtfnu\\ \n\xff";

fn read_artifact(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Compares `edited` against `original` both ways; a panic fails the test
/// naming the edit that caused it.
fn compare_both_ways(original: &str, edited: &[u8], what: &dyn Fn() -> String) {
    let edited = String::from_utf8_lossy(edited);
    for (old, new) in [(original, edited.as_ref()), (edited.as_ref(), original)] {
        if catch_unwind(AssertUnwindSafe(|| compare_reports(old, new, 0.25))).is_err() {
            panic!("compare_reports panicked on {}", what());
        }
    }
}

#[test]
fn prefix_cuts_and_byte_edits_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x00c0_ffee);
    for name in ARTIFACTS {
        let text = read_artifact(name);
        let bytes = text.as_bytes();
        assert!(compare_reports(&text, &text, 0.25).is_ok(), "{name} must self-compare");
        for cut in 0..bytes.len() {
            compare_both_ways(&text, &bytes[..cut], &|| format!("{name} cut at byte {cut}"));
        }
        for _ in 0..EDITS {
            let mut edited = bytes.to_vec();
            let at = rng.gen_range(0..edited.len());
            let byte = ALPHABET[rng.gen_range(0..ALPHABET.len())];
            let op = match rng.gen_range(0..3u32) {
                0 => {
                    edited[at] = byte;
                    "replace"
                }
                1 => {
                    edited.insert(at, byte);
                    "insert"
                }
                _ => {
                    edited.remove(at);
                    "delete"
                }
            };
            compare_both_ways(&text, &edited, &|| format!("{name} {op} {byte:#04x} at byte {at}"));
        }
    }
}
