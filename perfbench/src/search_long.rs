//! `search-long`: single-layer gamma searches at long sample budgets,
//! rotated over the Table 1 layers, configured as `mapex search` is by
//! default (rejecting guard, one pool lane per core plus a 64k-entry
//! cache, two retries).

use crate::cpu::CpuClock;
use crate::layers::TraceAcc;
use crate::trace::traced_search;
use crate::{checks, ready, round_order, time_ms, time_op, BatchReport, OpRecord, Settings};
use arch::Arch;
use costmodel::{CostModel, DenseModel, GuardConfig, GuardPolicy, GuardedModel};
use mappers::{Budget, EdpEvaluator, Gamma, RunStatus, SearchResult};
use mse::{EvalCache, EvalConfig, EvalPool, Mse, RunPolicy};
use problem::{zoo, Problem};
use std::time::Instant;

/// Sample budgets of one round, each run on every layer. Equal shares put
/// the median inside the middle budget's band and p90 inside the top one.
const BUDGETS: [usize; 3] = [4_000, 12_000, 32_000];

pub fn table1() -> Vec<Problem> {
    vec![
        zoo::resnet_conv3(),
        zoo::resnet_conv4(),
        zoo::inception_conv2(),
        zoo::bert_kqv(),
        zoo::bert_attn(),
        zoo::bert_fc(),
    ]
}

/// The search exactly as `mapex search` runs it.
fn plain_search(p: &Problem, a: &Arch, samples: usize, seed: u64) -> Result<SearchResult, String> {
    let model: Box<dyn CostModel> = Box::new(DenseModel::new(p.clone(), a.clone()));
    let guarded = GuardedModel::new(model, GuardConfig::new(GuardPolicy::Reject));
    let evaluator = EdpEvaluator::new(&guarded);
    let policy = RunPolicy::with_retries(2).with_eval(EvalConfig::full());
    let outcome = Mse::new(&guarded).run_guarded_audited(
        &Gamma::new(),
        &evaluator,
        Budget::samples(samples),
        seed,
        policy,
        &guarded,
    );
    if outcome.status != RunStatus::Succeeded {
        return Err(format!(
            "search ended {:?} after {} attempt(s)",
            outcome.status,
            outcome.attempts.len()
        ));
    }
    outcome.result.ok_or_else(|| "no result".to_string())
}

pub fn run(s: &Settings) -> Result<BatchReport, String> {
    let arch = Arch::accel_b();
    let layers = table1();
    let mut kinds = Vec::new();
    for (li, p) in layers.iter().enumerate() {
        for (bi, &b) in BUDGETS.iter().enumerate() {
            // Search seeds are fixed per kind: the workload seed orders the
            // ops, so every run computes the same set of results.
            kinds.push((p, b, 11 + (li * BUDGETS.len() + bi) as u64));
        }
    }
    let mut rep = BatchReport::new(
        kinds
            .iter()
            .map(|(p, b, _)| format!("gamma {} @{b}", p.name()))
            .collect(),
    );
    for p in &layers {
        plain_search(p, &arch, 2_000, 1)?;
    }
    rep.setup_cpu_s = ready();
    let clock = CpuClock::this_process();
    let mut acc = TraceAcc::default();
    let mut check_secs = 0.0;
    let start = Instant::now();
    for round in 0..s.rounds {
        for (pos, &k) in round_order(kinds.len(), s.seed, s.batch, round as u64)
            .iter()
            .enumerate()
        {
            let (p, samples, seed) = kinds[k];
            let (result, ms, wall_ms) = if s.trace {
                let traced_first = pos % 2 == 0;
                let mut plain = None;
                if !traced_first {
                    plain = Some(time_op(clock, || plain_search(p, &arch, samples, seed)));
                }
                let ((traced, totals, cache_stats), traced_ms) = time_ms(|| {
                    // A pool and a cache per search, as `mapex search` makes.
                    let cfg = EvalConfig::full();
                    let (pool, cache) = (EvalPool::new(cfg), EvalCache::new(cfg.cache_capacity));
                    let model: Box<dyn CostModel> =
                        Box::new(DenseModel::new(p.clone(), arch.clone()));
                    let guard = GuardConfig::new(GuardPolicy::Reject);
                    let budget = Budget::samples(samples);
                    let (r, totals) = traced_search(
                        model,
                        guard,
                        &Gamma::new(),
                        budget,
                        seed,
                        &pool,
                        &cache,
                        None,
                    );
                    (r, totals, cache.stats())
                });
                if traced_first {
                    plain = Some(time_op(clock, || plain_search(p, &arch, samples, seed)));
                }
                let (result, ms, wall_ms) = plain.expect("plain run made");
                acc.add_op("gamma", &totals, traced_ms * 1e-3);
                acc.plain_secs += wall_ms * 1e-3;
                acc.searches += 1;
                acc.evaluated += traced.evaluated as u64;
                acc.pruned += traced.pruned as u64;
                acc.pareto_len += traced.pareto.len() as u64;
                acc.cache_hits += cache_stats.hits;
                acc.cache_misses += cache_stats.misses;
                if let Ok(r) = &result {
                    let same = r.best_score.to_bits() == traced.best_score.to_bits()
                        && r.best.as_ref().map(|b| &b.0) == traced.best.as_ref().map(|b| &b.0)
                        && r.evaluated == traced.evaluated;
                    if !same {
                        rep.error(k, "traced search differs from the untraced one");
                    }
                }
                (result, ms, wall_ms)
            } else {
                time_op(clock, || plain_search(p, &arch, samples, seed))
            };
            let t = Instant::now();
            let evaluated = match result {
                Ok(r) => {
                    match &r.best {
                        Some((m, cost)) => {
                            if let Err(e) =
                                checks::check_best(p, &arch, None, m, cost, r.best_score)
                            {
                                rep.error(k, e);
                            }
                            rep.record_edp(k, r.best_score);
                        }
                        None => rep.error(k, "no best mapping"),
                    }
                    r.evaluated
                }
                Err(e) => {
                    rep.error(k, e);
                    0
                }
            };
            check_secs += t.elapsed().as_secs_f64();
            rep.ops.push(OpRecord {
                kind: k,
                ms,
                wall_ms,
                evaluated,
                failed: false,
            });
        }
    }
    rep.timed_s = start.elapsed().as_secs_f64() - check_secs;
    rep.rss_kb = crate::peak_rss_kb(None);
    if s.trace {
        rep.layers = acc.metrics();
    }
    Ok(rep)
}
