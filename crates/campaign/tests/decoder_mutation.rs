//! Deterministic mutation fuzzing of the artifact decoders.
//!
//! `Json::parse` and `artifact::run_from_json` read bytes from outside
//! the process (chunks on disk, worker RESULT payloads), so garbage must
//! come back as an `Err`, never as a panic. Seeds are a chunk rendered by
//! `run_to_json` and every JSON section of the committed golden artifact;
//! each must round-trip unmutated. Mutants are `SimRng`-driven byte flips,
//! truncations and splices, kept only when still valid UTF-8 (the parser
//! takes `&str`). The iteration budget is fixed, so a failure reproduces
//! from the printed iteration number alone.

use std::panic::{self, AssertUnwindSafe};

use mmwave_campaign::artifact;
use mmwave_campaign::json::Json;
use mmwave_campaign::{RunRecord, RunStatus};
use mmwave_sim::metrics::EngineCounters;
use mmwave_sim::rng::SimRng;

const GOLDEN: &str = include_str!("golden/campaign_quick.txt");

/// Kept (valid UTF-8) mutants decoded per test run.
const MUTANTS: usize = 3000;

/// The JSON bodies of the golden document, which is a sequence of
/// `=== <name> ===` headers each followed by a body and a blank line.
fn golden_sections() -> Vec<(String, String)> {
    let mut sections = Vec::new();
    let mut rest = GOLDEN;
    while let Some(header) = rest.strip_prefix("=== ") {
        let (name, after) = header.split_once(" ===\n").expect("header line");
        let end = after.find("\n=== ").map_or(after.len() - 1, |i| i);
        sections.push((name.to_string(), after[..end].to_string()));
        rest = &after[end + 1..];
    }
    assert!(rest.is_empty(), "unparsed golden tail: {rest:?}");
    sections
}

/// A chunk exercising every field kind, with multibyte text and escapes.
fn chunk() -> String {
    let engine = EngineCounters {
        events_popped: 539_028,
        link_gain_hits: 640,
        codebook_prebuilt_hits: 3,
        spatial_pruned_pairs: 11,
        ..EngineCounters::default()
    };
    let record = RunRecord {
        experiment: "fig09".into(),
        title: "Fig. 9: WiGig data frame length".into(),
        seed: 7,
        quick: true,
        scenario: "point-to-point".into(),
        status: RunStatus::ShapeFail,
        violations: vec!["median 12.5 µs off by 2× — \"too long\"".into()],
        output: "== table ==\n\tangle 23° → 😀 中文\\n\n".into(),
        panic_message: None,
        wall_ms: 12.375,
        engine,
    };
    artifact::run_to_json(&record).render()
}

fn below(rng: &mut SimRng, n: usize) -> usize {
    (rng.next_u64() % n.max(1) as u64) as usize
}

/// One to three stacked byte-level mutations of `doc`.
fn mutate(rng: &mut SimRng, doc: &[u8], seeds: &[String]) -> Vec<u8> {
    let mut b = doc.to_vec();
    for _ in 0..1 + below(rng, 3) {
        match below(rng, 3) {
            0 if !b.is_empty() => {
                let i = below(rng, b.len());
                b[i] ^= 1 << below(rng, 8);
            }
            1 => b.truncate(below(rng, b.len() + 1)),
            _ => {
                // Replace a short range of `b` with a slice of a donor seed.
                let donor = seeds[below(rng, seeds.len())].as_bytes();
                let from = below(rng, donor.len());
                let take = &donor[from..(from + below(rng, 64)).min(donor.len())];
                let at = below(rng, b.len() + 1);
                let cut = (at + below(rng, 16)).min(b.len());
                b.splice(at..cut, take.iter().copied());
            }
        }
    }
    b
}

#[test]
fn unmutated_seeds_roundtrip() {
    let chunk = chunk();
    let parsed = Json::parse(&chunk).expect("chunk parses");
    assert_eq!(parsed.render(), chunk);
    let record = artifact::run_from_json(&parsed).expect("chunk decodes");
    assert_eq!(artifact::run_to_json(&record).render(), chunk);

    let sections = golden_sections();
    assert_eq!(sections.len(), 15, "manifest + 14 run chunks");
    for (name, body) in &sections {
        let parsed = Json::parse(body).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&parsed.render(), body, "{name} must re-render exactly");
        if name.starts_with("runs/") {
            let record = artifact::run_from_json(&parsed).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(&artifact::run_to_json(&record).render(), body, "{name}");
        }
    }
}

#[test]
fn mutated_inputs_error_instead_of_panicking() {
    let mut seeds = vec![chunk()];
    seeds.extend(golden_sections().into_iter().map(|(_, body)| body));
    let mut rng = SimRng::root(0x6067_a1e5).stream("decoder-mutation");

    let (mut kept, mut parsed_ok, mut decoded_ok) = (0usize, 0usize, 0usize);
    for iteration in 0.. {
        if kept == MUTANTS {
            break;
        }
        assert!(iteration < 20 * MUTANTS, "too few mutants stay UTF-8");
        let seed = &seeds[below(&mut rng, seeds.len())];
        let Ok(text) = String::from_utf8(mutate(&mut rng, seed.as_bytes(), &seeds)) else {
            continue;
        };
        kept += 1;
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let Ok(v) = Json::parse(&text) else {
                return (false, false);
            };
            let Ok(record) = artifact::run_from_json(&v) else {
                return (true, false);
            };
            // A mutant that still decodes is a valid chunk: it must
            // round-trip through the codec like any other.
            let again = artifact::run_to_json(&record).render();
            let back = Json::parse(&again).expect("re-encoded chunk parses");
            let back = artifact::run_from_json(&back).expect("re-encoded chunk decodes");
            assert_eq!(artifact::run_to_json(&back).render(), again);
            (true, true)
        }));
        match outcome {
            Ok((p, d)) => {
                parsed_ok += p as usize;
                decoded_ok += d as usize;
            }
            Err(_) => panic!("decoder panicked at iteration {iteration} on input:\n{text}"),
        }
    }
    // The budget must exercise both the reject and the accept paths.
    assert!(
        parsed_ok > 0 && parsed_ok < kept,
        "parsed {parsed_ok}/{kept}"
    );
    assert!(decoded_ok > 0, "no mutant decoded");
}
