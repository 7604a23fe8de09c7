//! Per-layer figures of a traced batch.
//!
//! Every workload reports every figure; a layer the workload does not pass
//! through reads 0 (for example the pool on `sweep-warm`, whose library
//! stack is serial and uncached).

use crate::trace::{Kind, StackTotals};
use std::collections::BTreeMap;

/// The mapper families whose self time is reported, in report order.
pub const FAMILIES: [&str; 5] = ["gamma", "annealing", "cem", "random-pruned", "dosa"];

/// Traced facts summed over a batch's ops.
#[derive(Default)]
pub struct TraceAcc {
    pub stack: StackTotals,
    /// Host time of the traced ops.
    pub traced_secs: f64,
    /// Host time of the same ops run untraced.
    pub plain_secs: f64,
    pub searches: u64,
    pub evaluated: u64,
    pub pruned: u64,
    pub pareto_len: u64,
    /// Per family: (time outside the evaluator, ops).
    pub family_self: BTreeMap<&'static str, (f64, u64)>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub seed_secs: f64,
    pub seed_calls: u64,
    pub seeded: u64,
    pub converge: Vec<usize>,
    pub store_recall: (f64, u64),
    pub store_deposit: (f64, u64),
    pub store_records: f64,
    pub store_hit_rate: f64,
    pub ping_ms: Vec<f64>,
    pub evaluate_ms: Vec<f64>,
    pub service_cache_hit_rate: f64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

impl TraceAcc {
    /// Adds one traced search: its stack totals, the host time of the op
    /// and the part of it spent outside the evaluator, by family.
    pub fn add_op(&mut self, family: &'static str, stack: &StackTotals, op_secs: f64) {
        self.stack.add(stack);
        self.traced_secs += op_secs;
        let e = self.family_self.entry(family).or_default();
        e.0 += op_secs - stack.evaluator_secs();
        e.1 += 1;
    }

    pub fn metrics(mut self) -> Vec<(&'static str, f64)> {
        let s = self.stack;
        let us = 1e6;
        let raw_items = s.raw.eval_items() as f64;
        let guard_self = s.guarded.eval_secs() - s.raw.eval_secs();
        // Inner time of the cache: the pool when one is stacked, else the
        // evaluator under it directly.
        let pool_used = s.pool.calls.iter().sum::<u64>() > 0;
        let under_cache = if pool_used {
            s.pool.all_secs()
        } else {
            s.lanes.all_secs()
        };
        let under_watchdog = if s.cache.all_secs() > 0.0 {
            s.cache.all_secs()
        } else {
            under_cache
        };
        // Pool: batches go through dispatch; single calls pass through and
        // show up with equal time at the pool and in the lanes.
        let (batch_secs, batch_calls, _) = s.pool.of(Kind::Batch);
        let lanes = s.lane_count.max(1) as f64;
        let busy = s.lanes.eval_secs() - s.pool.of(Kind::One).0 - s.pool.of(Kind::Delta).0;
        let self_ms = |acc: &BTreeMap<&'static str, (f64, u64)>, f: &str| {
            acc.get(f)
                .map_or(0.0, |&(secs, n)| ratio(secs * 1e3, n as f64))
        };
        let mut out: Vec<(&'static str, f64)> = vec![
            (
                "costmodel.us_per_eval",
                ratio(s.raw.eval_secs() * us, raw_items),
            ),
            ("costmodel.share", ratio(s.raw.all_secs(), self.traced_secs)),
            (
                "costmodel.batch_share",
                ratio(s.raw.of(Kind::Batch).2 as f64, raw_items),
            ),
            (
                "costmodel.delta_share",
                ratio(s.raw.of(Kind::Delta).2 as f64, raw_items),
            ),
            ("costmodel.bound_us", {
                let (secs, calls, _) = s.raw.of(Kind::Bound);
                ratio(secs * us, calls as f64)
            }),
            (
                "guard.us_per_eval",
                ratio(guard_self * us, s.guarded.eval_items() as f64),
            ),
            (
                "mappers.share",
                ratio(
                    self.family_self.values().map(|v| v.0).sum::<f64>(),
                    self.traced_secs,
                ),
            ),
            (
                "mappers.pareto_len",
                ratio(self.pareto_len as f64, self.searches as f64),
            ),
            (
                "mappers.pruned_share",
                ratio(self.pruned as f64, self.evaluated as f64),
            ),
        ];
        let names = [
            "mappers.self_ms.gamma",
            "mappers.self_ms.annealing",
            "mappers.self_ms.cem",
            "mappers.self_ms.random-pruned",
            "mappers.self_ms.dosa",
        ];
        for (name, family) in names.into_iter().zip(FAMILIES) {
            out.push((name, self_ms(&self.family_self, family)));
        }
        let lookups = (self.cache_hits + self.cache_misses) as f64;
        out.extend([
            (
                "eval_cache.hit_rate",
                ratio(self.cache_hits as f64, lookups),
            ),
            (
                "eval_cache.us_per_lookup",
                ratio(
                    (s.cache.all_secs() - under_cache) * us,
                    s.cache.eval_items() as f64,
                ),
            ),
            (
                "eval_pool.lane_busy",
                if pool_used {
                    ratio(busy, lanes * batch_secs)
                } else {
                    0.0
                },
            ),
            (
                "eval_pool.us_per_batch",
                if pool_used {
                    ratio((batch_secs - busy / lanes) * us, batch_calls as f64)
                } else {
                    0.0
                },
            ),
            (
                "watchdog.us_per_eval",
                ratio(
                    (s.watchdog.all_secs() - under_watchdog) * us,
                    s.watchdog.eval_items() as f64,
                ),
            ),
            (
                "warmstart.seed_us",
                ratio(self.seed_secs * us, self.seed_calls as f64),
            ),
            (
                "warmstart.seeded_share",
                ratio(self.seeded as f64, self.seed_calls as f64),
            ),
            ("warmstart.converge_samples", {
                let mut c: Vec<f64> = self.converge.iter().map(|&x| x as f64).collect();
                median(&mut c)
            }),
            (
                "store.recall_us",
                ratio(self.store_recall.0 * us, self.store_recall.1 as f64),
            ),
            (
                "store.deposit_us",
                ratio(self.store_deposit.0 * us, self.store_deposit.1 as f64),
            ),
            ("store.records", self.store_records),
            ("store.hit_rate", self.store_hit_rate),
            ("service.ping_ms_p50", median(&mut self.ping_ms)),
            ("service.evaluate_ms_p50", median(&mut self.evaluate_ms)),
            ("service.cache_hit_rate", self.service_cache_hit_rate),
            (
                "trace.overhead",
                ratio(self.traced_secs, self.plain_secs) - 1.0,
            ),
        ]);
        out
    }
}
