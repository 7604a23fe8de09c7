//! `sweep-warm`: warm-started `run_network` sweeps over the zoo networks
//! at a short per-layer budget, on the library-default serial, uncached
//! stack behind a rejecting guard. Ops rotate through four mapper
//! families and run the same layers through the dense and the sparse
//! model; every sweep starts from the same replay-buffer contents.

use crate::cpu::CpuClock;
use crate::layers::TraceAcc;
use crate::search_long::table1;
use crate::trace::{Span, StackTotals, TimedModel};
use crate::{
    checks, mapper_named, ready, round_order, time_ms, time_op, BatchReport, OpRecord, Settings,
};
use arch::{Arch, SparseCaps};
use costmodel::{CostModel, GuardConfig, GuardPolicy, GuardedModel};
use mappers::{Budget, Gamma};
use mse::{run_network, InitStrategy, LayerOutcome, Mse, ReplayBuffer};
use problem::{zoo, Density, Problem};
use std::time::Instant;

/// Samples per layer.
const LAYER_BUDGET: usize = 150;
/// Sweep seed (per-layer seeds derive from it and the layer index).
const SWEEP_SEED: u64 = 7;
const NETWORKS: [&str; 5] = ["vgg16", "resnet50", "mobilenet_v2", "mnasnet", "bert_large"];
const FAMILIES: [&str; 4] = ["gamma", "annealing", "cem", "random-pruned"];
/// Input (activation) density of each network's sparse ops, inside the
/// paper's Table 4 sweep.
const INPUT_DENSITY: [f64; 5] = [0.5, 0.2, 0.8, 0.5, 0.2];
/// Families that take warm-start seeds through `Mapper::set_seeds`; only
/// their layers are warm-started, so only theirs must end no worse than
/// the seed.
const SEEDED_FAMILIES: [&str; 1] = ["gamma"];

fn guard_config(density: Option<Density>) -> GuardConfig {
    match density {
        Some(d) => GuardConfig::sparse(GuardPolicy::Reject, &SparseCaps::flexible(), d),
        None => GuardConfig::new(GuardPolicy::Reject),
    }
}

fn guarded(p: &Problem, a: &Arch, density: Option<Density>) -> Box<dyn CostModel> {
    Box::new(GuardedModel::new(
        checks::fresh_model(p, a, density),
        guard_config(density),
    ))
}

/// The guarded model with a timing decorator outside the guard and one
/// between the guard and the raw model.
fn traced_guarded<'s>(
    p: &Problem,
    a: &Arch,
    density: Option<Density>,
    guarded_span: &'s Span,
    raw_span: &'s Span,
) -> Box<dyn CostModel + 's> {
    let raw = TimedModel {
        inner: checks::fresh_model(p, a, density),
        span: raw_span,
    };
    Box::new(TimedModel {
        inner: GuardedModel::new(raw, guard_config(density)),
        span: guarded_span,
    })
}

/// Replay-buffer contents every sweep starts from: the best mapping of a
/// short gamma search on each Table 1 layer.
fn initial_buffer(a: &Arch) -> Vec<u8> {
    let buffer = ReplayBuffer::new();
    for (i, p) in table1().iter().enumerate() {
        let model = guarded(p, a, None);
        let r = Mse::new(model.as_ref()).run(&Gamma::new(), Budget::samples(1_000), i as u64);
        if let Some((m, _)) = r.best {
            buffer.insert(p.clone(), m);
        }
    }
    let mut bytes = Vec::new();
    buffer.save(&mut bytes).expect("in-memory write");
    bytes
}

struct Kind {
    layers: Vec<Problem>,
    family: &'static str,
    density: Option<Density>,
}

pub fn run(s: &Settings) -> Result<BatchReport, String> {
    let arch = Arch::accel_b();
    let mut kinds = Vec::new();
    let mut names = Vec::new();
    for (ni, net) in NETWORKS.iter().enumerate() {
        let layers = zoo::model(net).ok_or_else(|| format!("unknown network {net}"))?;
        for family in FAMILIES {
            for density in [None, Some(Density::input_sparse(INPUT_DENSITY[ni]))] {
                names.push(format!(
                    "{net}/{family}/{}",
                    density.map_or("dense".to_string(), |d| format!("sparse{}", d.input))
                ));
                kinds.push(Kind {
                    layers: layers.clone(),
                    family,
                    density,
                });
            }
        }
    }
    let mut rep = BatchReport::new(names);
    let init = initial_buffer(&arch);
    let load = || {
        let b = ReplayBuffer::new();
        b.load(init.as_slice()).expect("in-memory read");
        b
    };
    let budget = Budget::samples(LAYER_BUDGET);
    // Warm-up: one dense sweep per network.
    for net in NETWORKS {
        let layers = zoo::model(net).expect("zoo network");
        run_network(
            &layers,
            &arch,
            &load(),
            InitStrategy::BySimilarity,
            budget,
            SWEEP_SEED,
            |p| guarded(p, &arch, None),
            || mapper_named("gamma"),
        );
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
            let kind = &kinds[k];
            let plain = |buffer: &ReplayBuffer| {
                run_network(
                    &kind.layers,
                    &arch,
                    buffer,
                    InitStrategy::BySimilarity,
                    budget,
                    SWEEP_SEED,
                    |p| guarded(p, &arch, kind.density),
                    || mapper_named(kind.family),
                )
            };
            let (outcomes, ms, wall_ms) = if s.trace {
                let (guarded_span, raw_span) = (Span::default(), Span::default());
                let traced = |buffer: &ReplayBuffer| {
                    run_network(
                        &kind.layers,
                        &arch,
                        buffer,
                        InitStrategy::BySimilarity,
                        budget,
                        SWEEP_SEED,
                        |p| traced_guarded(p, &arch, kind.density, &guarded_span, &raw_span),
                        || mapper_named(kind.family),
                    )
                };
                let (b1, b2) = (load(), load());
                let traced_first = pos % 2 == 0;
                let mut plain_run = None;
                if !traced_first {
                    plain_run = Some(time_op(clock, || plain(&b1)));
                }
                let (t_out, t_ms) = time_ms(|| traced(&b2));
                if traced_first {
                    plain_run = Some(time_op(clock, || plain(&b1)));
                }
                let (outcomes, ms, wall_ms) = plain_run.expect("plain run made");
                let totals = StackTotals {
                    guarded: guarded_span.totals(),
                    raw: raw_span.totals(),
                    ..StackTotals::default()
                };
                acc.add_op(kind.family, &totals, t_ms * 1e-3);
                acc.plain_secs += wall_ms * 1e-3;
                for o in &t_out {
                    acc.searches += 1;
                    acc.evaluated += o.result.evaluated as u64;
                    acc.pruned += o.result.pruned as u64;
                    acc.pareto_len += o.result.pareto.len() as u64;
                    acc.converge.push(o.converge_sample);
                }
                let same = outcomes.len() == t_out.len()
                    && outcomes.iter().zip(&t_out).all(|(a, b)| {
                        a.result.best_score.to_bits() == b.result.best_score.to_bits()
                            && a.init_score.to_bits() == b.init_score.to_bits()
                    });
                if !same {
                    rep.error(k, "traced sweep differs from the untraced one");
                }
                (outcomes, ms, wall_ms)
            } else {
                let buffer = load();
                time_op(clock, || plain(&buffer))
            };
            let t = Instant::now();
            let evaluated = outcomes.iter().map(|o| o.result.evaluated).sum();
            check_sweep(
                &mut rep,
                &mut acc,
                k,
                kind,
                &arch,
                &load(),
                &outcomes,
                s.trace,
            );
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

/// Checks every layer of one sweep. Replays the sweep's replay-buffer
/// history to learn which layers were warm-started (and, traced, times
/// those `seed_for` calls).
#[allow(clippy::too_many_arguments)]
fn check_sweep(
    rep: &mut BatchReport,
    acc: &mut TraceAcc,
    k: usize,
    kind: &Kind,
    arch: &Arch,
    shadow: &ReplayBuffer,
    outcomes: &[LayerOutcome],
    trace: bool,
) {
    if outcomes.len() != kind.layers.len() {
        rep.error(
            k,
            format!(
                "{} layer outcome(s) for {} layers",
                outcomes.len(),
                kind.layers.len()
            ),
        );
        return;
    }
    let mut log_sum = 0.0;
    for (p, o) in kind.layers.iter().zip(outcomes) {
        let t = Instant::now();
        let seed = shadow.seed_for(p, arch, InitStrategy::BySimilarity);
        if trace {
            acc.seed_secs += t.elapsed().as_secs_f64();
            acc.seed_calls += 1;
            acc.seeded += u64::from(seed.is_some());
        }
        let Some((m, cost)) = &o.result.best else {
            rep.error(k, format!("layer {}: no best mapping", p.name()));
            return;
        };
        if let Err(e) = checks::check_best(p, arch, kind.density, m, cost, o.result.best_score) {
            rep.error(k, format!("layer {}: {e}", p.name()));
        }
        if seed.is_some()
            && SEEDED_FAMILIES.contains(&kind.family)
            && o.result.best_score > o.init_score
        {
            rep.error(
                k,
                format!(
                    "layer {}: ends at {:e}, worse than its warm-start seed {:e}",
                    p.name(),
                    o.result.best_score,
                    o.init_score
                ),
            );
        }
        log_sum += o.result.best_score.ln();
        shadow.insert(p.clone(), m.clone());
    }
    rep.record_edp(k, (log_sum / outcomes.len() as f64).exp());
}
