//! The three campaign workloads, the untraced pass that drives each one
//! through `control::run_streaming` exactly as `campaign --quick --out DIR`
//! does, and the traced pass that re-drives the same matrix through the
//! layers' public functions with a span around every call.

use std::cmp::Reverse;
use std::io;
use std::path::Path;
use std::time::Instant;

use mmwave_campaign::control::{self, ControlOpts, ControlSummary};
use mmwave_campaign::json::Json;
use mmwave_campaign::manifest::{self, ChunkEntry, Manifest, ManifestWriter};
use mmwave_campaign::{artifact, runner, CampaignConfig, CampaignResult, RunRecord};
use mmwave_core::experiments::{self, CostTier, Experiment, REGISTRY};
use mmwave_phy::CodebookPrebuild;

use crate::layers::{self, PassFacts};
use crate::trace::Tracer;

/// The millisecond-scale experiments the seed sweeps run.
pub const SWEEP_IDS: [&str; 8] = [
    "table1", "fig03", "fig08", "fig15", "fig16", "fig17", "fig18", "fig19",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every registry experiment, quick mode, one seed.
    PaperQuick,
    /// The sweep experiments over contiguous seeds, executed.
    SeedSweep,
    /// The same matrix resumed from a directory a `SeedSweep` pass left.
    ResumeSweep,
}

/// Matrix size: the benchmark's own, or a tiny one for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Bench,
    Smoke,
}

impl Size {
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "bench" => Some(Size::Bench),
            "smoke" => Some(Size::Smoke),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Size::Bench => "bench",
            Size::Smoke => "smoke",
        }
    }

    fn sweep_seeds(self) -> u64 {
        match self {
            Size::Bench => 40,
            Size::Smoke => 2,
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperQuick,
        Workload::SeedSweep,
        Workload::ResumeSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperQuick => "paper_quick",
            Workload::SeedSweep => "seed_sweep",
            Workload::ResumeSweep => "resume_sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn resumes(self) -> bool {
        self == Workload::ResumeSweep
    }

    /// The campaign matrix for workload seed `seed`. The smoke size keeps
    /// only the fast experiments of `paper_quick`.
    pub fn config(self, seed: u64, size: Size) -> CampaignConfig {
        let (experiments, seeds): (Vec<&'static Experiment>, Vec<u64>) = match self {
            Workload::PaperQuick => (
                REGISTRY
                    .iter()
                    .filter(|e| size == Size::Bench || e.cost == CostTier::Fast)
                    .collect(),
                vec![seed],
            ),
            Workload::SeedSweep | Workload::ResumeSweep => (
                SWEEP_IDS
                    .iter()
                    .map(|id| experiments::find(id).expect("sweep id is registered"))
                    .collect(),
                (seed..seed + size.sweep_seeds()).collect(),
            ),
        };
        CampaignConfig {
            experiments,
            seeds,
            quick: true,
            jobs: 1,
            cc: None,
            prune: None,
        }
    }
}

fn opts(resume: bool) -> ControlOpts {
    ControlOpts {
        workers: 0,
        resume,
        worker_cmd: Vec::new(),
    }
}

/// One untraced campaign invocation and its host wall time.
pub fn untraced_pass(
    cfg: &CampaignConfig,
    out: &Path,
    resume: bool,
) -> io::Result<(f64, ControlSummary)> {
    let t0 = Instant::now();
    let summary = control::run_streaming(cfg, out, &opts(resume))?;
    Ok((t0.elapsed().as_secs_f64(), summary))
}

/// Child process body of a set-up probe: start the workload's campaign
/// invocation on an empty directory and exit the moment its first task
/// starts, so the parent's spawn-to-exit time is the invocation's set-up
/// (process start, matrix planning, ledger creation, codebook prebuild).
pub fn setup_probe_child(w: Workload, seed: u64, size: Size, out: &Path) -> i32 {
    fn exit_at_first_task(_: &mmwave_sim::ctx::SimCtx, _: bool, _: u64) -> experiments::RunReport {
        std::process::exit(0)
    }
    let mut cfg = w.config(seed, size);
    // Same ids, titles, tiers and scenarios, hence the same matrix,
    // fingerprint and dispatch order; only the run function differs.
    for e in cfg.experiments.iter_mut() {
        *e = Box::leak(Box::new(Experiment {
            run: exit_at_first_task,
            ..**e
        }));
    }
    match control::run_streaming(&cfg, out, &opts(w.resumes())) {
        Ok(_) => {
            eprintln!("set-up probe: the campaign finished without starting a task");
            3
        }
        Err(e) => {
            eprintln!("set-up probe: {e}");
            2
        }
    }
}

/// Child process body that builds `resume_sweep`'s input: one fresh
/// `seed_sweep` invocation into `out`, plus its canonical artifact
/// document in `out/reference.canon` for the resume correctness gate.
pub fn make_input_child(seed: u64, size: Size, out: &Path) -> i32 {
    let cfg = Workload::SeedSweep.config(seed, size);
    match untraced_pass(&cfg, out, false).and_then(|(_, s)| {
        std::fs::write(
            out.join(REFERENCE_FILE),
            artifact::canonical_document(&s.result),
        )
    }) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("input generation: {e}");
            2
        }
    }
}

/// Canonical artifacts of the fresh run a resume must reproduce.
pub const REFERENCE_FILE: &str = "reference.canon";

/// What a traced pass produced besides its spans.
pub struct TracedPass {
    pub result: CampaignResult,
    pub executed: Vec<bool>,
    pub chunk_bytes: u64,
    pub parsed_bytes: u64,
    pub root_span: usize,
}

impl TracedPass {
    pub fn facts(&self) -> PassFacts<'_> {
        PassFacts {
            records: &self.result.records,
            executed: &self.executed,
            chunk_bytes: self.chunk_bytes,
            parsed_bytes: self.parsed_bytes,
        }
    }
}

/// The steps of `control::run_streaming` with the in-process datapath,
/// taken one public call at a time on this thread, each inside a span.
/// Produces the same artifacts and records as an untraced pass.
pub fn traced_pass(
    cfg: &CampaignConfig,
    out: &Path,
    resume: bool,
    tr: &mut Tracer,
) -> io::Result<TracedPass> {
    let root_span = tr.enter("pass", None);
    let t0 = Instant::now();
    let (tasks, fp) = tr.span("campaign.plan", None, || {
        let tasks = cfg.tasks();
        let fp = manifest::fingerprint(&tasks);
        (tasks, fp)
    });
    tr.span("campaign.write", None, || {
        std::fs::create_dir_all(out.join("runs"))
    })?;

    let previous = if resume {
        tr.span("campaign.load", None, || Manifest::load(out))
            .filter(|m| m.fingerprint == fp)
    } else {
        None
    };
    let mut chunk_bytes = 0u64;
    let mut parsed_bytes = 0u64;
    let mut carried = Vec::new();
    let mut keyed: Vec<((usize, u64), RunRecord, bool)> = Vec::new();
    let mut pending = Vec::new();
    for task in tasks {
        let cell = Some((task.exp.id, task.seed));
        let entry = previous
            .as_ref()
            .and_then(|m| m.entry(task.exp.id, task.seed))
            .filter(|e| e.rel_path == artifact::run_artifact_name(task.exp.id, task.seed))
            .filter(|e| tr.span("campaign.verify", cell, || e.verify(out)));
        let record = entry.and_then(|e| {
            let text = tr.span("campaign.read", cell, || {
                std::fs::read_to_string(out.join(&e.rel_path)).ok()
            })?;
            chunk_bytes += text.len() as u64;
            parsed_bytes += text.len() as u64;
            let parsed = tr.span("campaign.parse", cell, || Json::parse(&text).ok())?;
            let rec = tr.span("campaign.decode", cell, || {
                artifact::run_from_json(&parsed).ok()
            })?;
            Some((e.clone(), rec))
        });
        match record {
            Some((entry, rec)) => {
                carried.push(entry);
                keyed.push(((task.exp_index, task.seed), rec, false));
            }
            None => pending.push(task),
        }
    }
    let mut ledger = tr.span("campaign.write", None, || {
        ManifestWriter::create(out, fp, &carried)
    })?;

    let pool = tr.span("phy.prebuild", None, CodebookPrebuild::standard_devices);
    // The pool's dispatch order: heaviest cost tier first, stable within.
    pending.sort_by_key(|t| Reverse(t.exp.cost));
    let tasks_resumed = keyed.len() as u64;
    let mut chunks_streamed = 0u64;
    for task in pending {
        let cell = Some((task.exp.id, task.seed));
        let record = tr.span(layers::core_span_name(task.exp.id), cell, || {
            runner::run_task_prebuilt(&task, &pool)
        });
        let rel = artifact::run_artifact_name(&record.experiment, record.seed);
        let chunk = tr.span("campaign.encode", cell, || {
            artifact::run_to_json(&record).render()
        });
        chunk_bytes += chunk.len() as u64;
        tr.span("campaign.write", cell, || {
            std::fs::write(out.join(&rel), &chunk)
        })?;
        let hash = tr.span("campaign.hash", cell, || {
            manifest::fnv1a64(chunk.as_bytes())
        });
        tr.span("campaign.write", cell, || {
            ledger.append(&ChunkEntry {
                hash,
                len: chunk.len() as u64,
                experiment: record.experiment.clone(),
                seed: record.seed,
                rel_path: rel,
            })
        })?;
        chunks_streamed += 1;
        keyed.push(((task.exp_index, task.seed), record, true));
    }

    keyed.sort_by_key(|(key, _, _)| *key);
    let executed = keyed.iter().map(|(_, _, ran)| *ran).collect();
    let result = CampaignResult {
        records: keyed.into_iter().map(|(_, r, _)| r).collect(),
        seeds: cfg.seeds.clone(),
        quick: cfg.quick,
        jobs: 1,
        workers: 0,
        tasks_resumed,
        chunks_streamed,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    };
    let summary = tr.span("campaign.encode", None, || {
        artifact::manifest_to_json(&result).render()
    });
    tr.span("campaign.write", None, || {
        std::fs::write(out.join("manifest.json"), summary)
    })?;
    tr.exit(root_span);
    Ok(TracedPass {
        result,
        executed,
        chunk_bytes,
        parsed_bytes,
        root_span,
    })
}
