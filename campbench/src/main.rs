//! campbench — end-to-end and per-layer benchmark of the campaign runner.
//!
//! ```text
//! cargo run --release --manifest-path campbench/Cargo.toml -- \
//!     --workload paper_quick|seed_sweep|resume_sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` each pass is one `control::run_streaming` call, the
//! way `campaign --quick --out DIR` runs, and the last stdout line carries
//! the end-to-end metrics. With `--trace 1` untraced passes alternate
//! with traced re-drives of the same matrix (see `workload::traced_pass`)
//! and the last line carries the per-layer metrics. NOTES.md explains the
//! workloads and the metric definitions.

#[global_allocator]
static ALLOC: mmwave_bench::CountingAlloc = mmwave_bench::CountingAlloc;

mod layers;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use mmwave_campaign::{artifact, CampaignResult, RunStatus};

use stats::{summarize, valid_name, valid_unit};
use trace::Tracer;
use workload::{Size, Workload};

/// Set-up probes per run, at least; one more runs before every pass.
const MIN_SETUP_PROBES: usize = 5;

/// Scratch space for campaign output, inside the directory the benchmark
/// runs from.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    child: Option<String>,
    dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Bench;
    let mut child = None;
    let mut dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--size" => {
                let v = value()?;
                size = Size::parse(&v).ok_or(format!("unknown size {v}"))?;
            }
            "--child" => child = Some(value()?),
            "--dir" => dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    // Seed sweeps run seeds seed..seed+40; keep their names representable.
    if seed > u64::MAX / 2 {
        return Err("--seed is too large".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    // Child processes get their work from --child and --dir instead.
    let (seconds, trace) = match child {
        Some(_) => (0.0, false),
        None => (
            seconds.ok_or("--seconds is required")?,
            trace.ok_or("--trace is required")?,
        ),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        size,
        child,
        dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "campbench: {e}\nusage: campbench --workload paper_quick|seed_sweep|resume_sweep --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(child) = &args.child {
        let Some(dir) = &args.dir else {
            eprintln!("campbench: --child needs --dir");
            return ExitCode::from(2);
        };
        let code = match child.as_str() {
            "setup" => workload::setup_probe_child(args.workload, args.seed, args.size, dir),
            "input" => workload::make_input_child(args.seed, args.size, dir),
            other => {
                eprintln!("campbench: unknown child mode {other}");
                2
            }
        };
        return ExitCode::from(code as u8);
    }

    let work = Path::new(WORK_ROOT).join(format!(
        "{}-s{}-p{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(report) => {
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("campbench: correctness gate failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("campbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Samples of every reported metric, plus the run's failure accounting.
struct Report {
    workload: Workload,
    seed: u64,
    trace: bool,
    units: Vec<(String, &'static str)>,
    samples: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Report {
    fn new(args: &Args, units: Vec<(String, &'static str)>) -> Report {
        Report {
            workload: args.workload,
            seed: args.seed,
            trace: args.trace,
            units,
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }

    fn add(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Account one pass: its cells, panicked cells and gate mismatches.
    /// Returns the pass's failed share, add-one smoothed (see NOTES.md).
    fn account(&mut self, cells: usize, panicked: usize, mismatches: usize) -> f64 {
        self.attempted += cells as u64;
        self.failed += (panicked + mismatches) as u64;
        if mismatches > 0 {
            self.correct = false;
        }
        (panicked + mismatches + 1) as f64 / (cells + 1) as f64
    }

    fn print(&self) {
        let mut detail = String::new();
        let mut metrics = String::new();
        for (name, unit) in &self.units {
            assert!(
                valid_name(name) && valid_unit(unit),
                "bad metric {name} [{unit}]"
            );
            let values = self
                .samples
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was never sampled"));
            let s = summarize(values);
            eprintln!(
                "  {name:<34} {:>16.6} {unit:<8} q1 {:.6} q3 {:.6} n {}",
                s.median, s.q1, s.q3, s.n
            );
            let sep = if metrics.is_empty() { "" } else { ", " };
            detail.push_str(&format!(
                "{sep}\"{name}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": \"{unit}\"}}",
                json_num(s.median),
                json_num(s.q1),
                json_num(s.q3),
                s.n
            ));
            metrics.push_str(&format!(
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(s.median)
            ));
        }
        println!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"summary\": {{{detail}}}}}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace)
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
    }
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a JSON number");
    format!("{v}")
}

fn e2e_units() -> Vec<(String, &'static str)> {
    [
        ("wall_s", "s"),
        ("setup_s", "s"),
        ("tasks_per_s", "1/s"),
        ("events_per_s", "1/s"),
        ("peak_rss_mb", "MB"),
        ("failed_share", "share"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let cfg = args.workload.config(args.seed, args.size);
    let cells = cfg.tasks().len();
    let resume = args.workload.resumes();

    // resume_sweep's input: built once, in a child process so that neither
    // its time nor its memory lands in this process's figures.
    let input = work.join("input");
    let reference = if resume {
        let mut cmd = child_cmd("input", args, &input)?;
        run_child(&mut cmd)?;
        let doc = std::fs::read_to_string(input.join(workload::REFERENCE_FILE))
            .map_err(|e| format!("input generation left no reference: {e}"))?;
        Some(split_document(&doc))
    } else {
        None
    };
    let pass_dir = |i: usize| {
        if resume {
            input.clone()
        } else {
            work.join(format!("pass-{i}"))
        }
    };

    let mut report = if args.trace {
        Report::new(args, layers::metric_names())
    } else {
        Report::new(args, e2e_units())
    };
    let mut gate = Gate { reference, cells };
    let started = Instant::now();
    let mut tracer = Tracer::new();
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut probes = 0usize;
    let mut i = 0usize;
    loop {
        let round = Instant::now();
        if !args.trace {
            report.add("setup_s", setup_probe(args, work, probes)?);
            probes += 1;
        }
        let dir = pass_dir(i);
        let (wall, summary) = workload::untraced_pass(&cfg, &dir, resume)
            .map_err(|e| format!("campaign pass failed: {e}"))?;
        let mut mismatches = gate.check(&summary.result);
        if resume && !(summary.executed.is_empty() && summary.resumed.len() == cells) {
            mismatches += summary.executed.len().max(1);
        }
        let share = report.account(cells, panicked(&summary.result), mismatches);
        untraced_walls.push(wall);
        if !args.trace {
            let events: u64 = summary
                .result
                .records
                .iter()
                .map(|r| r.engine.events_popped)
                .sum();
            report.add("wall_s", wall);
            report.add("tasks_per_s", cells as f64 / wall);
            report.add("events_per_s", events as f64 / wall);
            report.add("failed_share", share);
        }
        if !resume {
            let _ = std::fs::remove_dir_all(&dir);
        }
        i += 1;

        if args.trace {
            let dir = pass_dir(i);
            let traced = workload::traced_pass(&cfg, &dir, resume, &mut tracer)
                .map_err(|e| format!("traced pass failed: {e}"))?;
            let mut mismatches = gate.check(&traced.result);
            if resume && traced.executed.contains(&true) {
                mismatches += traced.executed.iter().filter(|&&ran| ran).count();
            }
            report.account(cells, panicked(&traced.result), mismatches);
            let spans = tracer.spans();
            let own = trace::self_costs(spans);
            let metrics =
                layers::pass_metrics(spans, &own, traced.root_span..spans.len(), &traced.facts())?;
            for (name, v) in metrics {
                report.add(&name, v);
            }
            traced_walls.push(spans[traced.root_span].duration_ns() as f64 / 1e9);
            if !resume {
                let _ = std::fs::remove_dir_all(&dir);
            }
            i += 1;
        }

        // Start another round only if it is expected to end in time.
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + round.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }

    if args.trace {
        let overhead = summarize(&traced_walls).median / summarize(&untraced_walls).median - 1.0;
        report.add("trace.overhead_share", overhead);
        let traces = Path::new(WORK_ROOT).join("traces");
        let path = traces.join(format!("{}-s{}.tsv", args.workload.name(), args.seed));
        std::fs::create_dir_all(&traces)
            .and_then(|()| tracer.write_tsv(&path))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "campbench: {} spans in {}",
            tracer.spans().len(),
            path.display()
        );
    } else {
        while probes < MIN_SETUP_PROBES {
            report.add("setup_s", setup_probe(args, work, probes)?);
            probes += 1;
        }
        report.add("peak_rss_mb", peak_rss_mb()?);
    }
    eprintln!(
        "campbench: {} seed {} trace {}: {} passes of {} cells",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        i,
        cells
    );
    Ok(report)
}

fn panicked(result: &CampaignResult) -> usize {
    result
        .records
        .iter()
        .filter(|r| r.status == RunStatus::Panicked)
        .count()
}

/// The correctness gate: every pass's canonical artifacts must equal the
/// first pass's, or, on `resume_sweep`, those of the fresh run that built
/// the input.
struct Gate {
    /// `None` until the first pass sets it, except on `resume_sweep`.
    reference: Option<Vec<(String, String)>>,
    cells: usize,
}

impl Gate {
    /// Number of artifacts (manifest plus one per cell) that differ.
    fn check(&mut self, result: &CampaignResult) -> usize {
        let got = split_document(&artifact::canonical_document(result));
        let mut mismatches = 0;
        if result.records.len() != self.cells {
            mismatches += self.cells.abs_diff(result.records.len()).max(1);
        }
        match &self.reference {
            Some(want) => {
                mismatches += want.len().abs_diff(got.len());
                mismatches += want.iter().zip(&got).filter(|(a, b)| a != b).count();
            }
            None => self.reference = Some(got),
        }
        mismatches
    }
}

/// Split an `artifact::canonical_document` back into `(name, body)`
/// pairs. Rendered JSON escapes newlines inside strings, so no body line
/// can start with the `=== ` header marker.
fn split_document(doc: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in doc.split_inclusive('\n') {
        if let Some(name) = line
            .strip_prefix("=== ")
            .and_then(|l| l.strip_suffix(" ===\n"))
        {
            out.push((name.to_string(), String::new()));
        } else if let Some((_, body)) = out.last_mut() {
            body.push_str(line);
        } else {
            out.push((String::new(), line.to_string()));
        }
    }
    out
}

fn child_cmd(mode: &str, args: &Args, dir: &Path) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode, "--workload", args.workload.name()])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--size",
            args.size.as_str(),
        ])
        .arg("--dir")
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    Ok(cmd)
}

fn run_child(cmd: &mut Command) -> Result<(), String> {
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("child {cmd:?} failed: {status}"))
    }
}

/// Host seconds from spawning a fresh process that starts the workload's
/// campaign invocation until that process exits at its first task.
fn setup_probe(args: &Args, work: &Path, i: usize) -> Result<f64, String> {
    let dir = work.join(format!("probe-{i}"));
    let mut cmd = child_cmd("setup", args, &dir)?;
    let t0 = Instant::now();
    run_child(&mut cmd)?;
    let secs = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(secs)
}

/// This process's resident-memory high-water mark (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_document_inverts_canonical_document() {
        let doc = "=== manifest.json ===\n{\n  \"a\": 1\n}\n\n=== runs/x-s1.json ===\n{}\n\n";
        assert_eq!(
            split_document(doc),
            vec![
                (
                    "manifest.json".to_string(),
                    "{\n  \"a\": 1\n}\n\n".to_string()
                ),
                ("runs/x-s1.json".to_string(), "{}\n\n".to_string()),
            ]
        );
    }
}
