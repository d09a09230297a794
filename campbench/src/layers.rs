//! Per-layer metrics of one traced pass: span times and allocations
//! grouped by layer, the program's engine counters mapped onto the layer
//! that owns them, and the ratios derived from both.

use std::collections::BTreeMap;
use std::ops::Range;

use mmwave_campaign::{RunRecord, RunStatus};
use mmwave_core::experiments::REGISTRY;
use mmwave_sim::metrics::EngineCounters;

use crate::trace::{SelfCost, Span};

/// How a counter combines over the cells of a pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fold {
    Sum,
    Max,
}

/// Every `EngineCounters` field, with the layer metric it is reported as.
#[rustfmt::skip]
pub const COUNTER_LAYERS: [(&str, &str, Fold); 16] = [
    ("events_popped", "sim.events", Fold::Sum),
    ("events_cancelled", "sim.events_cancelled", Fold::Sum),
    ("peak_queue_depth", "sim.peak_queue_depth", Fold::Max),
    ("link_gain_hits", "channel.link_gain_hits", Fold::Sum),
    ("link_gain_misses", "channel.link_gain_misses", Fold::Sum),
    ("link_gain_invalidations", "channel.link_gain_invalidations", Fold::Sum),
    ("spatial_pruned_pairs", "channel.spatial_pruned_pairs", Fold::Sum),
    ("spatial_zone_invalidations", "channel.spatial_zone_invalidations", Fold::Sum),
    ("codebook_hits", "phy.codebook_hits", Fold::Sum),
    ("codebook_misses", "phy.codebook_misses", Fold::Sum),
    ("codebook_prebuilt_hits", "phy.codebook_prebuilt_hits", Fold::Sum),
    ("scenario_mutations", "mac.scenario_mutations", Fold::Sum),
    ("faults_injected", "mac.faults_injected", Fold::Sum),
    ("cc_reports_folded", "transport.cc_reports_folded", Fold::Sum),
    ("cc_patterns_installed", "transport.cc_patterns_installed", Fold::Sum),
    ("cc_loss_epochs", "transport.cc_loss_epochs", Fold::Sum),
];

/// Campaign-layer spans, each reported as `<name>_ms`.
pub const CAMPAIGN_SPANS: [&str; 9] = [
    "campaign.plan",
    "campaign.encode",
    "campaign.write",
    "campaign.hash",
    "campaign.load",
    "campaign.verify",
    "campaign.read",
    "campaign.parse",
    "campaign.decode",
];

/// The span around `runner::run_task_prebuilt` for registry entry `id`.
pub fn core_span_name(id: &str) -> &'static str {
    static NAMES: std::sync::OnceLock<Vec<(&'static str, &'static str)>> =
        std::sync::OnceLock::new();
    let names = NAMES.get_or_init(|| {
        REGISTRY
            .iter()
            .map(|e| (e.id, &*Box::leak(format!("core.{}", e.id).into_boxed_str())))
            .collect()
    });
    names
        .iter()
        .find(|(e, _)| *e == id)
        .map(|(_, n)| *n)
        .unwrap_or_else(|| panic!("experiment {id} is not in the registry"))
}

/// Fold the engine counters of `records` into layer metrics, iterating
/// `EngineCounters::FIELDS` so that a counter the table does not map is
/// an error rather than a silently missing metric.
pub fn counter_metrics(records: &[RunRecord]) -> Result<Vec<(&'static str, u64)>, String> {
    EngineCounters::FIELDS
        .iter()
        .map(|&field| {
            let &(_, metric, fold) = COUNTER_LAYERS
                .iter()
                .find(|(f, _, _)| *f == field)
                .ok_or_else(|| {
                    format!("engine counter `{field}` has no layer in COUNTER_LAYERS")
                })?;
            let values = records.iter().map(|r| r.engine.get(field).unwrap_or(0));
            let v = match fold {
                Fold::Sum => values.sum(),
                Fold::Max => values.max().unwrap_or(0),
            };
            Ok((metric, v))
        })
        .collect()
}

/// Every per-layer metric name with its unit, in output order.
pub fn metric_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for s in CAMPAIGN_SPANS {
        out.push((format!("{s}_ms"), "ms"));
    }
    out.push(("campaign.chunk_bytes".into(), "bytes"));
    out.push(("campaign.parse_ns_per_byte".into(), "ns/byte"));
    out.push(("campaign.resume_hit_ratio".into(), "ratio"));
    out.push(("campaign.allocs".into(), "count"));
    out.push(("campaign.self_share".into(), "share"));
    out.push(("phy.prebuild_ms".into(), "ms"));
    out.push(("phy.prebuild_allocs".into(), "count"));
    for e in REGISTRY {
        out.push((format!("core.{}.ms", e.id), "ms"));
        out.push((format!("core.{}.allocs", e.id), "count"));
    }
    out.push(("core.shape_fail_cells".into(), "count"));
    for (_, metric, _) in COUNTER_LAYERS {
        out.push((metric.into(), "count"));
    }
    out.push(("sim.ns_per_event".into(), "ns/event"));
    out.push(("sim.ns_per_event_fig14".into(), "ns/event"));
    out.push(("channel.link_gain_hit_ratio".into(), "ratio"));
    out.push(("phy.codebook_hit_ratio".into(), "ratio"));
    out.push(("trace.overhead_share".into(), "share"));
    out
}

/// What one traced pass did, beyond its spans.
pub struct PassFacts<'a> {
    /// Records of every cell, in matrix order.
    pub records: &'a [RunRecord],
    /// Per record: executed by this pass (true) or resumed (false).
    pub executed: &'a [bool],
    /// Chunk bytes the pass encoded or read back.
    pub chunk_bytes: u64,
    /// Chunk bytes handed to `Json::parse`.
    pub parsed_bytes: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of the traced pass whose spans are
/// `spans[range]`; `range.start` is the pass's root span. Every name of
/// [`metric_names`] except `trace.overhead_share` is filled in.
pub fn pass_metrics(
    spans: &[Span],
    own: &[SelfCost],
    range: Range<usize>,
    facts: &PassFacts,
) -> Result<BTreeMap<String, f64>, String> {
    let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut total_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut allocs: BTreeMap<&str, u64> = BTreeMap::new();
    let mut campaign_self_ns = 0u64;
    let mut campaign_allocs = 0u64;
    for i in range.clone() {
        let (s, c) = (&spans[i], &own[i]);
        *self_ns.entry(s.name).or_default() += c.ns;
        *total_ns.entry(s.name).or_default() += s.duration_ns();
        *allocs.entry(s.name).or_default() += s.allocs;
        if s.name.starts_with("campaign.") {
            campaign_self_ns += c.ns;
            campaign_allocs += c.allocs;
        }
    }
    let wall_ns = spans[range.start].duration_ns() as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let get = |m: &BTreeMap<&str, u64>, k: &str| m.get(k).copied().unwrap_or(0);

    let mut out = BTreeMap::new();
    for s in CAMPAIGN_SPANS {
        out.insert(format!("{s}_ms"), ms(get(&self_ns, s)));
    }
    out.insert("campaign.chunk_bytes".into(), facts.chunk_bytes as f64);
    out.insert(
        "campaign.parse_ns_per_byte".into(),
        ratio(
            get(&self_ns, "campaign.parse") as f64,
            facts.parsed_bytes as f64,
        ),
    );
    out.insert(
        "campaign.resume_hit_ratio".into(),
        ratio(
            facts.executed.iter().filter(|&&ran| !ran).count() as f64,
            facts.records.len() as f64,
        ),
    );
    out.insert("campaign.allocs".into(), campaign_allocs as f64);
    out.insert(
        "campaign.self_share".into(),
        ratio(campaign_self_ns as f64, wall_ns),
    );
    out.insert("phy.prebuild_ms".into(), ms(get(&total_ns, "phy.prebuild")));
    out.insert(
        "phy.prebuild_allocs".into(),
        get(&allocs, "phy.prebuild") as f64,
    );

    let mut core_ns = 0u64;
    for e in REGISTRY {
        let name = core_span_name(e.id);
        core_ns += get(&total_ns, name);
        out.insert(format!("{name}.ms"), ms(get(&total_ns, name)));
        out.insert(format!("{name}.allocs"), get(&allocs, name) as f64);
    }
    let shape_failed = facts
        .records
        .iter()
        .filter(|r| r.status == RunStatus::ShapeFail)
        .count();
    out.insert("core.shape_fail_cells".into(), shape_failed as f64);

    for (metric, v) in counter_metrics(facts.records)? {
        out.insert(metric.into(), v as f64);
    }
    // Host time per simulated event counts only the cells this pass
    // executed; a resumed cell's events were simulated by an earlier run.
    let executed_events = |id: Option<&str>| -> u64 {
        facts
            .records
            .iter()
            .zip(facts.executed)
            .filter(|(r, &ran)| ran && id.is_none_or(|id| r.experiment == id))
            .map(|(r, _)| r.engine.events_popped)
            .sum()
    };
    out.insert(
        "sim.ns_per_event".into(),
        ratio(core_ns as f64, executed_events(None) as f64),
    );
    out.insert(
        "sim.ns_per_event_fig14".into(),
        ratio(
            get(&total_ns, core_span_name("fig14")) as f64,
            executed_events(Some("fig14")) as f64,
        ),
    );
    let c = |k: &str| out.get(k).copied().unwrap_or(0.0);
    let lg = ratio(
        c("channel.link_gain_hits"),
        c("channel.link_gain_hits") + c("channel.link_gain_misses"),
    );
    let cb_hits = c("phy.codebook_hits") + c("phy.codebook_prebuilt_hits");
    let cb = ratio(cb_hits, cb_hits + c("phy.codebook_misses"));
    out.insert("channel.link_gain_hit_ratio".into(), lg);
    out.insert("phy.codebook_hit_ratio".into(), cb);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};

    #[test]
    fn counter_table_maps_every_field_exactly_once() {
        let mut fields: Vec<&str> = COUNTER_LAYERS.iter().map(|(f, _, _)| *f).collect();
        fields.sort_unstable();
        let mut known: Vec<&str> = EngineCounters::FIELDS.to_vec();
        known.sort_unstable();
        assert_eq!(fields, known);
        for (_, metric, _) in COUNTER_LAYERS {
            let layer = metric.split('.').next().expect("prefixed");
            assert!(["sim", "channel", "phy", "mac", "transport"].contains(&layer));
        }
    }

    #[test]
    fn counters_fold_by_sum_and_max() {
        let rec = |events, depth| {
            let mut r = RunRecord {
                experiment: "fig14".into(),
                title: String::new(),
                seed: 1,
                quick: true,
                scenario: String::new(),
                status: RunStatus::Pass,
                violations: vec![],
                output: String::new(),
                panic_message: None,
                wall_ms: 0.0,
                engine: EngineCounters::default(),
            };
            r.engine.events_popped = events;
            r.engine.peak_queue_depth = depth;
            r
        };
        let m: BTreeMap<_, _> = counter_metrics(&[rec(10, 4), rec(5, 9)])
            .expect("all fields mapped")
            .into_iter()
            .collect();
        assert_eq!(m["sim.events"], 15);
        assert_eq!(m["sim.peak_queue_depth"], 9);
        assert_eq!(m.len(), EngineCounters::FIELDS.len());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names = metric_names();
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in &names {
            assert!(valid_name(n), "{n}");
            assert!(valid_unit(u), "{u}");
            assert!(seen.insert(n.clone()), "duplicate {n}");
        }
        assert!(names.len() <= 128, "{} per-layer metrics", names.len());
    }
}
