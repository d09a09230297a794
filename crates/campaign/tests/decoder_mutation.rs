//! Deterministic mutation fuzzing of the decoders that read bytes from
//! outside the process.
//!
//! * `Json::parse` and `artifact::run_from_json` (chunks on disk, worker
//!   RESULT payloads), seeded from a chunk rendered by `run_to_json` and
//!   every JSON section of the committed golden artifact;
//! * `proto::read_msg` (the worker pipe), seeded from a recorded session:
//!   a TASK, a RESULT and a DONE written with `write_msg`;
//! * `ChunkEntry::parse` and `Manifest::load` (the resume ledger), seeded
//!   from the ledger of a real streaming run;
//! * `parse_waypoints_from` (mobility traces), seeded from
//!   `format_waypoints` output.
//!
//! Garbage must come back as an error (or `None`), never as a panic, and
//! every unmutated seed must round-trip. Mutants are `SimRng`-driven byte
//! flips, truncations and splices; a decoder that takes `&str` only sees
//! the ones that are still valid UTF-8. A mutant a decoder accepts must
//! round-trip like a seed. The iteration budget is fixed, so a failure
//! reproduces from the printed iteration number alone.

use std::panic::{self, AssertUnwindSafe};

use std::io::BufReader;
use std::path::{Path, PathBuf};

use mmwave_campaign::control::{self, ControlOpts};
use mmwave_campaign::json::Json;
use mmwave_campaign::manifest::{ChunkEntry, Manifest, ManifestWriter, MANIFEST_FILE_NAME};
use mmwave_campaign::proto::{read_msg, write_msg, Msg, WireTask};
use mmwave_campaign::{artifact, CampaignConfig};
use mmwave_campaign::{RunRecord, RunStatus};
use mmwave_core::experiments;
use mmwave_mac::scenario::{format_waypoints, parse_waypoints_from, Waypoint};
use mmwave_sim::ctx::CacheMode;
use mmwave_sim::metrics::EngineCounters;
use mmwave_sim::rng::SimRng;

const GOLDEN: &str = include_str!("golden/campaign_quick.txt");

/// Kept mutants decoded per decoder and test run.
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
    assert_eq!(sections.len(), 19, "manifest + 18 run chunks");
    for (name, body) in &sections {
        let parsed = Json::parse(body).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&parsed.render(), body, "{name} must re-render exactly");
        if name.starts_with("runs/") {
            let record = artifact::run_from_json(&parsed).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(&artifact::run_to_json(&record).render(), body, "{name}");
        }
    }
}

/// Decode [`MUTANTS`] mutants of `seeds`, drawn from the SimRng stream
/// `stream`, and return each decode's outcome. Mutants that `keep`
/// rejects are drawn again; a panic fails the test with the iteration
/// and the input.
fn fuzz<T>(
    stream: &str,
    seeds: &[String],
    keep: impl Fn(&[u8]) -> bool,
    decode: impl Fn(&[u8]) -> T,
) -> Vec<T> {
    let mut rng = SimRng::root(0x6067_a1e5).stream(stream);
    let mut outcomes = Vec::with_capacity(MUTANTS);
    for iteration in 0.. {
        if outcomes.len() == MUTANTS {
            break;
        }
        assert!(iteration < 20 * MUTANTS, "{stream}: too few mutants kept");
        let seed = &seeds[below(&mut rng, seeds.len())];
        let bytes = mutate(&mut rng, seed.as_bytes(), seeds);
        if !keep(&bytes) {
            continue;
        }
        match panic::catch_unwind(AssertUnwindSafe(|| decode(&bytes))) {
            Ok(outcome) => outcomes.push(outcome),
            Err(_) => panic!(
                "{stream}: decoder panicked at iteration {iteration} on input:\n{}",
                String::from_utf8_lossy(&bytes)
            ),
        }
    }
    outcomes
}

fn is_utf8(bytes: &[u8]) -> bool {
    std::str::from_utf8(bytes).is_ok()
}

fn any(_: &[u8]) -> bool {
    true
}

/// Assert that the budget exercised both the reject and the accept path.
fn assert_both_paths(what: &str, accepted: usize) {
    assert!(
        accepted > 0 && accepted < MUTANTS,
        "{what}: accepted {accepted}/{MUTANTS}"
    );
}

#[test]
fn mutated_inputs_error_instead_of_panicking() {
    let mut seeds = vec![chunk()];
    seeds.extend(golden_sections().into_iter().map(|(_, body)| body));
    let outcomes = fuzz("decoder-mutation", &seeds, is_utf8, |bytes| {
        let text = std::str::from_utf8(bytes).expect("kept mutants are UTF-8");
        let Ok(v) = Json::parse(text) else {
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
    });
    assert_both_paths("Json::parse", outcomes.iter().filter(|o| o.0).count());
    assert!(outcomes.iter().any(|o| o.1), "no mutant decoded");
}

/// A worker session as it crosses the pipe: one TASK, one RESULT, DONE.
fn session() -> Vec<Msg> {
    let task = WireTask {
        experiment: "fig18".into(),
        exp_index: 13,
        seed: 41,
        quick: true,
        cache_mode: CacheMode::Cached,
        cc: Some(mmwave_transport::CcKind::Cubic),
        prune: Some(mmwave_channel::PruneMode::Audit),
    };
    let record = Json::parse(&chunk()).expect("chunk parses");
    let record = artifact::run_from_json(&record).expect("chunk decodes");
    vec![Msg::Task(task), Msg::Result(Box::new(record)), Msg::Done]
}

fn write_session(msgs: &[Msg]) -> Vec<u8> {
    let mut buf = Vec::new();
    for msg in msgs {
        write_msg(&mut buf, msg).expect("write to a Vec");
    }
    buf
}

/// Every message of `bytes` up to a clean EOF, or the first error.
fn read_session(bytes: &[u8]) -> std::io::Result<Vec<Msg>> {
    let mut r = BufReader::new(bytes);
    let mut msgs = Vec::new();
    while let Some(msg) = read_msg(&mut r)? {
        msgs.push(msg);
    }
    Ok(msgs)
}

#[test]
fn mutated_worker_sessions_error_instead_of_panicking() {
    let msgs = session();
    let recorded = write_session(&msgs);
    assert_eq!(read_session(&recorded).expect("session reads"), msgs);
    let recorded = String::from_utf8(recorded).expect("the protocol is text");
    let accepted = fuzz("proto-read-msg", &[recorded], any, |bytes| {
        let Ok(msgs) = read_session(bytes) else {
            return false;
        };
        // Whatever reads cleanly must write back to a stream that reads
        // as the same messages.
        assert_eq!(read_session(&write_session(&msgs)).expect("re-read"), msgs);
        true
    });
    assert_both_paths("read_msg", accepted.iter().filter(|&&a| a).count());
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mmwave-decoder-mutation-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The ledger a streaming run of two cheap cells leaves behind.
fn recorded_ledger() -> String {
    let out = tmp_dir("ledger");
    let cfg = CampaignConfig {
        experiments: vec![experiments::find("table1").expect("registered")],
        seeds: vec![1, 2],
        quick: true,
        jobs: 1,
        cc: None,
        prune: None,
    };
    control::run_streaming(&cfg, &out, &ControlOpts::default()).expect("streaming run");
    let ledger = std::fs::read_to_string(out.join(MANIFEST_FILE_NAME)).expect("ledger");
    let _ = std::fs::remove_dir_all(&out);
    ledger
}

/// `manifest` written back through the control plane's writer.
fn rewrite(dir: &Path, manifest: &Manifest) -> Manifest {
    ManifestWriter::create(dir, manifest.fingerprint, &manifest.entries).expect("rewrite");
    Manifest::load(dir).expect("a written manifest loads")
}

#[test]
fn mutated_ledgers_are_dropped_instead_of_panicking() {
    let ledger = recorded_ledger();
    let dir = tmp_dir("mutants");
    std::fs::write(dir.join(MANIFEST_FILE_NAME), &ledger).expect("write ledger");
    let loaded = Manifest::load(&dir).expect("the recorded ledger loads");
    assert_eq!(loaded.entries.len(), 2, "{ledger}");
    let mut rendered = ledger.lines().next().expect("header").to_string() + "\n";
    for e in &loaded.entries {
        assert_eq!(ChunkEntry::parse(&e.render()).as_ref(), Some(e));
        rendered += &e.render();
    }
    assert_eq!(rendered, ledger, "the ledger must re-render exactly");

    let outcomes = fuzz("manifest-load", &[ledger], any, |bytes| {
        // Every complete line through the entry parser on its own.
        let mut entries = 0;
        for line in String::from_utf8_lossy(bytes).split_inclusive('\n') {
            if let Some(e) = ChunkEntry::parse(line) {
                assert_eq!(ChunkEntry::parse(&e.render()), Some(e));
                entries += 1;
            }
        }
        // And the whole file through the loader.
        std::fs::write(dir.join(MANIFEST_FILE_NAME), bytes).expect("write mutant");
        let Some(m) = Manifest::load(&dir) else {
            return (entries, false);
        };
        let again = rewrite(&dir, &m);
        assert_eq!(again.fingerprint, m.fingerprint);
        assert_eq!(again.entries, m.entries);
        (entries, true)
    });
    let _ = std::fs::remove_dir_all(&dir);
    let loaded = outcomes.iter().filter(|o| o.1).count();
    assert_both_paths("Manifest::load", loaded);
    // A mutant can hold 0, 1 or 2 parseable entries (or more, by a splice).
    assert!(outcomes.iter().any(|o| o.0 == 0) && outcomes.iter().any(|o| o.0 > 0));
}

fn waypoints_seed() -> String {
    let w = |t, x, y, theta_deg| Waypoint { t, x, y, theta_deg };
    format_waypoints(&[
        w(0.0, 0.0, 0.0, 0.0),
        w(0.012_5, -1.25, 3.0e-7, 179.999),
        w(0.012_5, 4.0, 2.5, -63.4),
        w(1.0 / 3.0, 1e12, -0.1, 360.0),
    ])
}

fn assert_waypoints_bits_equal(got: &[Waypoint], want: &[Waypoint]) {
    let bits = |w: &Waypoint| [w.t, w.x, w.y, w.theta_deg].map(f64::to_bits);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(bits(g), bits(w), "{g:?} vs {w:?}");
    }
}

#[test]
fn mutated_waypoint_traces_error_instead_of_panicking() {
    let seed = waypoints_seed();
    let parsed = parse_waypoints_from("walk.txt", &seed).expect("seed parses");
    assert_eq!(parsed.len(), 4);
    assert_eq!(format_waypoints(&parsed), seed);

    let accepted = fuzz("waypoints", &[seed], is_utf8, |bytes| {
        let text = std::str::from_utf8(bytes).expect("kept mutants are UTF-8");
        match parse_waypoints_from("walk.txt", text) {
            Ok(w) => {
                let again = format_waypoints(&w);
                let back = parse_waypoints_from("walk.txt", &again).expect("re-parse");
                assert_waypoints_bits_equal(&back, &w);
                true
            }
            Err(e) => {
                assert!(e.starts_with("walk.txt:"), "{e}");
                false
            }
        }
    });
    assert_both_paths(
        "parse_waypoints_from",
        accepted.iter().filter(|&&a| a).count(),
    );
}
