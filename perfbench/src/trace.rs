//! Timing decorators for the traced run.
//!
//! Each decorator wraps one layer boundary of the evaluation stack and
//! forwards every call unchanged (batched and neighbor calls stay batched
//! and neighbor calls, bounds stay bounds), so a traced search is
//! bit-identical to an untraced one. Time is summed into atomics because
//! pool lanes call the inner layers from several threads at once.

use costmodel::{Breakdown, Cost, CostModel, GuardConfig, GuardedModel};
use mappers::{Budget, EdpEvaluator, Evaluator, Mapper, SearchResult};
use mapping::{Mapping, MappingError};
use mse::{CachedEvaluator, EvalCache, EvalPool, Mse, PoolEvaluator, RunPolicy, WatchdogEvaluator};
use problem::Problem;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Busy time and work counted at one boundary, per kind of call.
#[derive(Default)]
pub struct Span {
    nanos: [AtomicU64; KINDS],
    calls: [AtomicU64; KINDS],
    items: [AtomicU64; KINDS],
}

const KINDS: usize = 4;

/// The kinds of call a boundary sees.
#[derive(Clone, Copy)]
pub enum Kind {
    /// One-shot scoring of a single mapping.
    One = 0,
    /// A batch of mappings.
    Batch = 1,
    /// Neighbors of an already-costed parent (delta re-evaluation).
    Delta = 2,
    /// An admissible lower bound.
    Bound = 3,
}

/// A plain snapshot of a [`Span`], summable over ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub secs: [f64; KINDS],
    pub calls: [u64; KINDS],
    pub items: [u64; KINDS],
}

impl SpanTotals {
    /// Scoring time (bounds excluded).
    pub fn eval_secs(&self) -> f64 {
        self.secs[..3].iter().sum()
    }

    /// Mappings scored (bounds excluded).
    pub fn eval_items(&self) -> u64 {
        self.items[..3].iter().sum()
    }

    /// Scoring plus bound time.
    pub fn all_secs(&self) -> f64 {
        self.secs.iter().sum()
    }

    pub fn of(&self, k: Kind) -> (f64, u64, u64) {
        let i = k as usize;
        (self.secs[i], self.calls[i], self.items[i])
    }

    pub fn add(&mut self, o: &SpanTotals) {
        for i in 0..KINDS {
            self.secs[i] += o.secs[i];
            self.calls[i] += o.calls[i];
            self.items[i] += o.items[i];
        }
    }
}

impl Span {
    pub fn totals(&self) -> SpanTotals {
        let load = |a: &[AtomicU64; KINDS]| a.each_ref().map(|x| x.load(Ordering::Relaxed));
        SpanTotals {
            secs: load(&self.nanos).map(|n| n as f64 * 1e-9),
            calls: load(&self.calls),
            items: load(&self.items),
        }
    }

    fn timed<T>(&self, items: usize, kind: Kind, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let i = kind as usize;
        self.nanos[i].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls[i].fetch_add(1, Ordering::Relaxed);
        self.items[i].fetch_add(items as u64, Ordering::Relaxed);
        out
    }
}

/// [`CostModel`] decorator: times every evaluation entry point.
pub struct TimedModel<'s, M: CostModel> {
    pub inner: M,
    pub span: &'s Span,
}

impl<M: CostModel> CostModel for TimedModel<'_, M> {
    fn problem(&self) -> &Problem {
        self.inner.problem()
    }

    fn arch(&self) -> &arch::Arch {
        self.inner.arch()
    }

    fn evaluate(&self, m: &Mapping) -> Result<Cost, MappingError> {
        self.span.timed(1, Kind::One, || self.inner.evaluate(m))
    }

    fn evaluate_detailed(&self, m: &Mapping) -> Result<Breakdown, MappingError> {
        self.span
            .timed(1, Kind::One, || self.inner.evaluate_detailed(m))
    }

    fn evaluate_batch(&self, ms: &[Mapping]) -> Vec<Result<Cost, MappingError>> {
        self.span
            .timed(ms.len(), Kind::Batch, || self.inner.evaluate_batch(ms))
    }

    fn evaluate_detailed_batch(&self, ms: &[Mapping]) -> Vec<Result<Breakdown, MappingError>> {
        self.span.timed(ms.len(), Kind::Batch, || {
            self.inner.evaluate_detailed_batch(ms)
        })
    }

    fn evaluate_neighbors(
        &self,
        parent: &Mapping,
        neighbors: &[Mapping],
    ) -> Vec<Result<Cost, MappingError>> {
        self.span.timed(neighbors.len(), Kind::Delta, || {
            self.inner.evaluate_neighbors(parent, neighbors)
        })
    }

    fn evaluate_neighbors_detailed(
        &self,
        parent: &Mapping,
        neighbors: &[Mapping],
    ) -> Vec<Result<Breakdown, MappingError>> {
        self.span.timed(neighbors.len(), Kind::Delta, || {
            self.inner.evaluate_neighbors_detailed(parent, neighbors)
        })
    }

    fn cost_bound(&self, m: &Mapping) -> Option<Cost> {
        self.span.timed(1, Kind::Bound, || self.inner.cost_bound(m))
    }
}

/// [`Evaluator`] decorator: times every scoring entry point.
pub struct TimedEval<'a> {
    pub inner: &'a dyn Evaluator,
    pub span: &'a Span,
}

impl Evaluator for TimedEval<'_> {
    fn evaluate(&self, m: &Mapping) -> Option<(Cost, f64)> {
        self.span.timed(1, Kind::One, || self.inner.evaluate(m))
    }

    fn evaluate_batch(&self, batch: &[Mapping]) -> Vec<Option<(Cost, f64)>> {
        self.span.timed(batch.len(), Kind::Batch, || {
            self.inner.evaluate_batch(batch)
        })
    }

    fn evaluate_neighbors(
        &self,
        parent: &Mapping,
        neighbors: &[Mapping],
    ) -> Vec<Option<(Cost, f64)>> {
        self.span.timed(neighbors.len(), Kind::Delta, || {
            self.inner.evaluate_neighbors(parent, neighbors)
        })
    }

    fn score_bound(&self, m: &Mapping) -> Option<f64> {
        self.span
            .timed(1, Kind::Bound, || self.inner.score_bound(m))
    }
}

/// Spans of one evaluation stack, outermost first.
#[derive(Default)]
pub struct StackSpans {
    /// Watchdog boundary (outermost evaluator the mapper sees).
    pub watchdog: Span,
    /// Cache boundary.
    pub cache: Span,
    /// Pool boundary (wall time of a dispatch, as the submitter sees it).
    pub pool: Span,
    /// EDP evaluator under the pool (summed busy time over lanes).
    pub lanes: Span,
    /// Guarded model (guard plus raw model).
    pub guarded: Span,
    /// Raw cost model.
    pub raw: Span,
}

/// Totals of [`StackSpans`] plus op-level facts, summed over ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct StackTotals {
    pub watchdog: SpanTotals,
    pub cache: SpanTotals,
    pub pool: SpanTotals,
    pub lanes: SpanTotals,
    pub guarded: SpanTotals,
    pub raw: SpanTotals,
    pub lane_count: u64,
}

impl StackSpans {
    pub fn totals(&self, lane_count: usize) -> StackTotals {
        StackTotals {
            watchdog: self.watchdog.totals(),
            cache: self.cache.totals(),
            pool: self.pool.totals(),
            lanes: self.lanes.totals(),
            guarded: self.guarded.totals(),
            raw: self.raw.totals(),
            lane_count: lane_count as u64,
        }
    }
}

impl StackTotals {
    pub fn add(&mut self, o: &StackTotals) {
        self.watchdog.add(&o.watchdog);
        self.cache.add(&o.cache);
        self.pool.add(&o.pool);
        self.lanes.add(&o.lanes);
        self.guarded.add(&o.guarded);
        self.raw.add(&o.raw);
        self.lane_count = self.lane_count.max(o.lane_count);
    }

    /// Time inside the outermost evaluator boundary that was traced.
    pub fn evaluator_secs(&self) -> f64 {
        [&self.watchdog, &self.cache, &self.pool, &self.guarded]
            .into_iter()
            .map(SpanTotals::all_secs)
            .find(|&s| s > 0.0)
            .unwrap_or(0.0)
    }
}

/// One search attempt on a hand-assembled copy of the evaluation stack
/// `Mse::run_resilient_shared` builds (watchdog → cache → pool → EDP →
/// guard → model, the pool only with more than one lane and the cache only
/// when enabled), with a timing decorator at every boundary. `pool` and
/// `cache` are the caller's, as they are the runtime's caller's.
#[allow(clippy::too_many_arguments)]
pub fn traced_search(
    model: Box<dyn CostModel>,
    guard: GuardConfig,
    mapper: &dyn Mapper,
    budget: Budget,
    seed: u64,
    pool: &EvalPool,
    cache: &EvalCache,
    deadline: Option<Instant>,
) -> (SearchResult, StackTotals) {
    let spans = StackSpans::default();
    let raw = TimedModel {
        inner: model,
        span: &spans.raw,
    };
    let guarded = TimedModel {
        inner: GuardedModel::new(raw, guard),
        span: &spans.guarded,
    };
    let edp = EdpEvaluator::new(&guarded);
    let lanes = TimedEval {
        inner: &edp,
        span: &spans.lanes,
    };
    let (pooled, timed_pool);
    let inner: &dyn Evaluator = if pool.lanes() > 1 {
        pooled = PoolEvaluator::new(pool, &lanes);
        timed_pool = TimedEval {
            inner: &pooled,
            span: &spans.pool,
        };
        &timed_pool
    } else {
        &lanes
    };
    let (cached, timed_cache);
    let stack: &dyn Evaluator = if cache.enabled() {
        cached = CachedEvaluator::new(cache, inner);
        timed_cache = TimedEval {
            inner: &cached,
            span: &spans.cache,
        };
        &timed_cache
    } else {
        inner
    };
    let watchdog =
        WatchdogEvaluator::with_deadline(stack, budget, RunPolicy::default().grace_evals, deadline);
    let outer = TimedEval {
        inner: &watchdog,
        span: &spans.watchdog,
    };
    let space = Mse::new(&guarded).space();
    let mut rng = SmallRng::seed_from_u64(seed);
    let result = mapper.search(&space, &outer, budget, &mut rng);
    (result, spans.totals(pool.lanes()))
}
