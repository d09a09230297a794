//! The explicit simulation context.
//!
//! [`SimCtx`] bundles everything that used to live in ambient state —
//! thread-local engine counters, the thread-local codebook cache, the
//! process-global link-gain bypass flag — into one cheaply-cloneable
//! handle that is threaded explicitly through every layer. Two `Net`s
//! stepped interleaved on one thread therefore accumulate independent
//! counters and independent caches by construction, and the counters a
//! campaign task reports are a pure function of that task rather than of
//! whichever thread happened to run it.
//!
//! Internally a `SimCtx` is an `Rc` around a block of `Cell` counters, the
//! link-gain [`CacheMode`], and a small type-keyed extension map. The
//! extension map solves the dependency direction: `mmwave-sim` sits at the
//! bottom of the workspace and cannot name the codebook cache (`mmwave-phy`)
//! or the TCP-sweep memo (`mmwave-core`), so downstream crates install
//! their per-context stores via [`SimCtx::ext_or_insert_with`].
//!
//! Cloning a `SimCtx` clones the `Rc` — clones share counters and caches.
//! A fresh context ([`SimCtx::new`]) shares nothing with any other.
//!
//! `SimCtx` is deliberately `!Send`: contexts, and the `Net`s that hold
//! them, live and die on one thread (campaign workers build a fresh
//! context per task on their own thread).

use crate::metrics::EngineCounters;
use crate::queue::QueueBackend;
use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Whether link-gain lookups through a context memoize or recompute.
///
/// `Bypass` exists to prove the cache sound: a bypassed run performs the
/// identical bookkeeping (counters, generations) but recomputes every
/// gain, so cached and bypassed campaigns must produce byte-identical
/// artifacts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CacheMode {
    /// Memoize link gains and sector tables (the default).
    #[default]
    Cached,
    /// Recompute every lookup (validation / benchmarking baseline).
    Bypass,
}

impl CacheMode {
    /// Stable identifier (wire protocol, CLI flag values, test labels).
    pub fn as_str(self) -> &'static str {
        match self {
            CacheMode::Cached => "cached",
            CacheMode::Bypass => "bypass",
        }
    }

    /// Inverse of [`CacheMode::as_str`].
    pub fn parse(s: &str) -> Option<CacheMode> {
        match s {
            "cached" => Some(CacheMode::Cached),
            "bypass" => Some(CacheMode::Bypass),
            _ => None,
        }
    }
}

struct CtxInner {
    events_popped: Cell<u64>,
    events_cancelled: Cell<u64>,
    peak_queue_depth: Cell<u64>,
    link_gain_hits: Cell<u64>,
    link_gain_misses: Cell<u64>,
    link_gain_invalidations: Cell<u64>,
    scenario_mutations: Cell<u64>,
    faults_injected: Cell<u64>,
    codebook_hits: Cell<u64>,
    codebook_misses: Cell<u64>,
    codebook_prebuilt_hits: Cell<u64>,
    cc_reports_folded: Cell<u64>,
    cc_patterns_installed: Cell<u64>,
    cc_loss_epochs: Cell<u64>,
    spatial_pruned_pairs: Cell<u64>,
    spatial_zone_invalidations: Cell<u64>,
    cache_mode: CacheMode,
    queue_backend: QueueBackend,
    /// Type-keyed extension slots: downstream crates park their
    /// per-context stores here (codebook cache, TCP-sweep memo). Linear
    /// scan — a context carries a handful of slots at most.
    ext: RefCell<Vec<(TypeId, Rc<dyn Any>)>>,
}

impl CtxInner {
    fn new(cache_mode: CacheMode, queue_backend: QueueBackend) -> CtxInner {
        CtxInner {
            events_popped: Cell::new(0),
            events_cancelled: Cell::new(0),
            peak_queue_depth: Cell::new(0),
            link_gain_hits: Cell::new(0),
            link_gain_misses: Cell::new(0),
            link_gain_invalidations: Cell::new(0),
            scenario_mutations: Cell::new(0),
            faults_injected: Cell::new(0),
            codebook_hits: Cell::new(0),
            codebook_misses: Cell::new(0),
            codebook_prebuilt_hits: Cell::new(0),
            cc_reports_folded: Cell::new(0),
            cc_patterns_installed: Cell::new(0),
            cc_loss_epochs: Cell::new(0),
            spatial_pruned_pairs: Cell::new(0),
            spatial_zone_invalidations: Cell::new(0),
            cache_mode,
            queue_backend,
            ext: RefCell::new(Vec::new()),
        }
    }
}

/// Explicit simulation context: counter sink, cache-mode policy, and
/// per-context cache slots. See the module docs.
#[derive(Clone)]
pub struct SimCtx {
    inner: Rc<CtxInner>,
}

impl Default for SimCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SimCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCtx")
            .field("counters", &self.counters())
            .field("cache_mode", &self.cache_mode())
            .finish_non_exhaustive()
    }
}

impl SimCtx {
    /// A fresh context with zeroed counters, [`CacheMode::Cached`], and the
    /// default event-queue backend.
    pub fn new() -> SimCtx {
        Self::with_config(CacheMode::default(), QueueBackend::default())
    }

    /// A fresh context with an explicit link-gain cache mode.
    pub fn with_cache_mode(mode: CacheMode) -> SimCtx {
        Self::with_config(mode, QueueBackend::default())
    }

    /// A fresh context with an explicit event-queue backend.
    pub fn with_queue_backend(backend: QueueBackend) -> SimCtx {
        Self::with_config(CacheMode::default(), backend)
    }

    /// A fresh context with every construction-time policy explicit.
    pub fn with_config(mode: CacheMode, backend: QueueBackend) -> SimCtx {
        SimCtx {
            inner: Rc::new(CtxInner::new(mode, backend)),
        }
    }

    /// The link-gain cache mode caches built through this context adopt.
    pub fn cache_mode(&self) -> CacheMode {
        self.inner.cache_mode
    }

    /// The event-queue backend queues built through this context adopt.
    pub fn queue_backend(&self) -> QueueBackend {
        self.inner.queue_backend
    }

    /// True if `other` is a clone of this context (shares state with it).
    pub fn shares_state_with(&self, other: &SimCtx) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// Read the accumulated counters.
    pub fn counters(&self) -> EngineCounters {
        let c = &self.inner;
        EngineCounters {
            events_popped: c.events_popped.get(),
            events_cancelled: c.events_cancelled.get(),
            peak_queue_depth: c.peak_queue_depth.get(),
            link_gain_hits: c.link_gain_hits.get(),
            link_gain_misses: c.link_gain_misses.get(),
            link_gain_invalidations: c.link_gain_invalidations.get(),
            scenario_mutations: c.scenario_mutations.get(),
            faults_injected: c.faults_injected.get(),
            codebook_hits: c.codebook_hits.get(),
            codebook_misses: c.codebook_misses.get(),
            codebook_prebuilt_hits: c.codebook_prebuilt_hits.get(),
            cc_reports_folded: c.cc_reports_folded.get(),
            cc_patterns_installed: c.cc_patterns_installed.get(),
            cc_loss_epochs: c.cc_loss_epochs.get(),
            spatial_pruned_pairs: c.spatial_pruned_pairs.get(),
            spatial_zone_invalidations: c.spatial_zone_invalidations.get(),
        }
    }

    /// Fold previously captured counters into this context — additive for
    /// the event counts, watermark-max for the queue depth.
    ///
    /// For when a computation's *result* is cached and reused: capture the
    /// counter delta while computing, store it with the cached value, and
    /// merge it on every cache hit. Each consumer then reports the same
    /// counters whether it filled the cache or read it.
    pub fn merge_counters(&self, c: EngineCounters) {
        let i = &self.inner;
        i.events_popped.set(i.events_popped.get() + c.events_popped);
        i.events_cancelled
            .set(i.events_cancelled.get() + c.events_cancelled);
        i.peak_queue_depth
            .set(i.peak_queue_depth.get().max(c.peak_queue_depth));
        i.link_gain_hits
            .set(i.link_gain_hits.get() + c.link_gain_hits);
        i.link_gain_misses
            .set(i.link_gain_misses.get() + c.link_gain_misses);
        i.link_gain_invalidations
            .set(i.link_gain_invalidations.get() + c.link_gain_invalidations);
        i.scenario_mutations
            .set(i.scenario_mutations.get() + c.scenario_mutations);
        i.faults_injected
            .set(i.faults_injected.get() + c.faults_injected);
        i.codebook_hits.set(i.codebook_hits.get() + c.codebook_hits);
        i.codebook_misses
            .set(i.codebook_misses.get() + c.codebook_misses);
        i.codebook_prebuilt_hits
            .set(i.codebook_prebuilt_hits.get() + c.codebook_prebuilt_hits);
        i.cc_reports_folded
            .set(i.cc_reports_folded.get() + c.cc_reports_folded);
        i.cc_patterns_installed
            .set(i.cc_patterns_installed.get() + c.cc_patterns_installed);
        i.cc_loss_epochs
            .set(i.cc_loss_epochs.get() + c.cc_loss_epochs);
        i.spatial_pruned_pairs
            .set(i.spatial_pruned_pairs.get() + c.spatial_pruned_pairs);
        i.spatial_zone_invalidations
            .set(i.spatial_zone_invalidations.get() + c.spatial_zone_invalidations);
    }

    /// Record an event popped and executed.
    pub fn record_pop(&self) {
        bump(&self.inner.events_popped);
    }

    /// Record an event cancelled while still pending.
    pub fn record_cancel(&self) {
        bump(&self.inner.events_cancelled);
    }

    /// Record the current live-event depth of some queue; the context keeps
    /// the watermark.
    pub fn record_depth(&self, depth: usize) {
        let c = &self.inner.peak_queue_depth;
        c.set(c.get().max(depth as u64));
    }

    /// Record a link-gain cache hit.
    pub fn record_link_gain_hit(&self) {
        bump(&self.inner.link_gain_hits);
    }

    /// Record a link-gain cache miss (entry computed or recomputed).
    pub fn record_link_gain_miss(&self) {
        bump(&self.inner.link_gain_misses);
    }

    /// Record a link-gain cache invalidation event.
    pub fn record_link_gain_invalidation(&self) {
        bump(&self.inner.link_gain_invalidations);
    }

    /// Record one applied scenario world mutation.
    pub fn record_scenario_mutation(&self) {
        bump(&self.inner.scenario_mutations);
    }

    /// Record one frame forced to fail by an injected fault window.
    pub fn record_fault_injected(&self) {
        bump(&self.inner.faults_injected);
    }

    /// Record a codebook-cache hit.
    pub fn record_codebook_hit(&self) {
        bump(&self.inner.codebook_hits);
    }

    /// Record a codebook-cache miss (all sectors synthesized).
    pub fn record_codebook_miss(&self) {
        bump(&self.inner.codebook_misses);
    }

    /// Record a codebook request resolved from a campaign-wide prebuilt
    /// pool (a cold synthesis avoided).
    pub fn record_codebook_prebuilt_hit(&self) {
        bump(&self.inner.codebook_prebuilt_hits);
    }

    /// Record one congestion-control measurement report folded into an
    /// algorithm.
    pub fn record_cc_report(&self) {
        bump(&self.inner.cc_reports_folded);
    }

    /// Record one congestion-control pattern installed on a datapath.
    pub fn record_cc_pattern(&self) {
        bump(&self.inner.cc_patterns_installed);
    }

    /// Record the start of one transport loss epoch (fast-retransmit
    /// entry or first RTO of a backoff train).
    pub fn record_cc_loss_epoch(&self) {
        bump(&self.inner.cc_loss_epochs);
    }

    /// Record `n` device pairs pruned by the spatial interference graph
    /// during one evaluation sweep (0 is a no-op).
    pub fn record_spatial_pruned(&self, n: u64) {
        let c = &self.inner.spatial_pruned_pairs;
        c.set(c.get() + n);
    }

    /// Record one wall mutation whose invalidation was scoped to its
    /// opaque zones instead of a global flush.
    pub fn record_spatial_zone_invalidation(&self) {
        bump(&self.inner.spatial_zone_invalidations);
    }

    /// Fetch this context's extension slot of type `T`, installing
    /// `f()` on first access. Clones of a context share slots; distinct
    /// contexts never do.
    pub fn ext_or_insert_with<T: Any>(&self, f: impl FnOnce() -> T) -> Rc<T> {
        let tid = TypeId::of::<T>();
        {
            let ext = self.inner.ext.borrow();
            if let Some((_, v)) = ext.iter().find(|(t, _)| *t == tid) {
                return Rc::clone(v).downcast::<T>().expect("ext slot type");
            }
        }
        // Build outside the borrow: `f` may itself touch the context.
        let v = Rc::new(f());
        self.inner
            .ext
            .borrow_mut()
            .push((tid, Rc::clone(&v) as Rc<dyn Any>));
        v
    }
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_context_counts_from_zero() {
        let ctx = SimCtx::new();
        assert_eq!(ctx.counters(), EngineCounters::default());
        ctx.record_pop();
        ctx.record_pop();
        ctx.record_cancel();
        ctx.record_depth(3);
        ctx.record_depth(1);
        ctx.record_link_gain_hit();
        ctx.record_link_gain_hit();
        ctx.record_link_gain_hit();
        ctx.record_link_gain_miss();
        ctx.record_link_gain_invalidation();
        ctx.record_scenario_mutation();
        ctx.record_scenario_mutation();
        ctx.record_fault_injected();
        ctx.record_codebook_hit();
        ctx.record_codebook_hit();
        ctx.record_codebook_miss();
        ctx.record_cc_report();
        ctx.record_cc_report();
        ctx.record_cc_report();
        ctx.record_cc_pattern();
        ctx.record_cc_pattern();
        ctx.record_cc_loss_epoch();
        ctx.record_spatial_pruned(4);
        ctx.record_spatial_pruned(0);
        ctx.record_spatial_zone_invalidation();
        let s = ctx.counters();
        assert_eq!(s.events_popped, 2);
        assert_eq!(s.events_cancelled, 1);
        assert_eq!(s.peak_queue_depth, 3);
        assert_eq!(s.link_gain_hits, 3);
        assert_eq!(s.link_gain_misses, 1);
        assert_eq!(s.link_gain_invalidations, 1);
        assert_eq!(s.scenario_mutations, 2);
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.codebook_hits, 2);
        assert_eq!(s.codebook_misses, 1);
        assert_eq!(s.cc_reports_folded, 3);
        assert_eq!(s.cc_patterns_installed, 2);
        assert_eq!(s.cc_loss_epochs, 1);
        assert_eq!(s.spatial_pruned_pairs, 4);
        assert_eq!(s.spatial_zone_invalidations, 1);
    }

    #[test]
    fn merge_is_additive_with_depth_watermark() {
        let ctx = SimCtx::new();
        ctx.record_depth(5);
        ctx.merge_counters(EngineCounters {
            events_popped: 10,
            events_cancelled: 2,
            peak_queue_depth: 3,
            link_gain_hits: 7,
            link_gain_misses: 4,
            link_gain_invalidations: 1,
            scenario_mutations: 6,
            faults_injected: 2,
            codebook_hits: 9,
            codebook_misses: 3,
            codebook_prebuilt_hits: 5,
            cc_reports_folded: 11,
            cc_patterns_installed: 8,
            cc_loss_epochs: 4,
            spatial_pruned_pairs: 12,
            spatial_zone_invalidations: 2,
        });
        let s = ctx.counters();
        assert_eq!(s.events_popped, 10);
        assert_eq!(s.peak_queue_depth, 5, "depth merges as a watermark");
        assert_eq!(s.link_gain_hits, 7);
        assert_eq!(s.link_gain_misses, 4);
        assert_eq!(s.link_gain_invalidations, 1);
        assert_eq!(s.scenario_mutations, 6);
        assert_eq!(s.faults_injected, 2);
        assert_eq!(s.codebook_hits, 9);
        assert_eq!(s.codebook_misses, 3);
        assert_eq!(s.codebook_prebuilt_hits, 5);
        assert_eq!(s.cc_reports_folded, 11);
        assert_eq!(s.cc_patterns_installed, 8);
        assert_eq!(s.cc_loss_epochs, 4);
        assert_eq!(s.spatial_pruned_pairs, 12);
        assert_eq!(s.spatial_zone_invalidations, 2);
    }

    #[test]
    fn clones_share_state_and_fresh_contexts_do_not() {
        let a = SimCtx::new();
        let b = a.clone();
        let c = SimCtx::new();
        assert!(a.shares_state_with(&b));
        assert!(!a.shares_state_with(&c));
        b.record_pop();
        assert_eq!(a.counters().events_popped, 1, "clones share counters");
        assert_eq!(c.counters().events_popped, 0, "fresh contexts do not");
    }

    #[test]
    fn cache_mode_is_set_at_construction() {
        assert_eq!(SimCtx::new().cache_mode(), CacheMode::Cached);
        let b = SimCtx::with_cache_mode(CacheMode::Bypass);
        assert_eq!(b.cache_mode(), CacheMode::Bypass);
        assert_eq!(b.clone().cache_mode(), CacheMode::Bypass);
    }

    #[test]
    fn queue_backend_is_set_at_construction() {
        assert_eq!(SimCtx::new().queue_backend(), QueueBackend::TimerWheel);
        let h = SimCtx::with_queue_backend(QueueBackend::BinaryHeap);
        assert_eq!(h.queue_backend(), QueueBackend::BinaryHeap);
        assert_eq!(h.clone().queue_backend(), QueueBackend::BinaryHeap);
        assert_eq!(h.cache_mode(), CacheMode::Cached);
        let both = SimCtx::with_config(CacheMode::Bypass, QueueBackend::BinaryHeap);
        assert_eq!(both.cache_mode(), CacheMode::Bypass);
        assert_eq!(both.queue_backend(), QueueBackend::BinaryHeap);
    }

    #[test]
    fn ext_slots_memoize_per_type_and_per_context() {
        struct Slot(Cell<u32>);
        let ctx = SimCtx::new();
        let first = ctx.ext_or_insert_with(|| Slot(Cell::new(7)));
        first.0.set(42);
        let again = ctx.ext_or_insert_with(|| Slot(Cell::new(0)));
        assert!(Rc::ptr_eq(&first, &again), "same slot on repeat access");
        assert_eq!(again.0.get(), 42);
        let clone_view = ctx.clone().ext_or_insert_with(|| Slot(Cell::new(0)));
        assert_eq!(clone_view.0.get(), 42, "clones share slots");
        let other = SimCtx::new();
        let fresh = other.ext_or_insert_with(|| Slot(Cell::new(0)));
        assert_eq!(fresh.0.get(), 0, "fresh contexts get fresh slots");
    }
}
