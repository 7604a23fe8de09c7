//! Output checks made apart from the search that produced the output.
//!
//! Every reported best mapping is re-costed by a freshly built one-shot
//! model and checked against facts computed here from the problem alone:
//! loop-bound products, the MAC count, and the compulsory DRAM traffic of
//! every tensor. Tiny GEMMs are also checked against the reference loop
//! simulator.

use arch::{Arch, SparseCaps};
use costmodel::{Breakdown, Cost, CostModel, DenseModel, SparseModel};
use mapping::Mapping;
use problem::{Density, Problem, TensorKind};

/// The raw model a reported cost must be reproducible with.
pub fn fresh_model(p: &Problem, a: &Arch, density: Option<Density>) -> Box<dyn CostModel> {
    match density {
        Some(d) => Box::new(SparseModel::new(
            p.clone(),
            a.clone(),
            SparseCaps::flexible(),
            d,
        )),
        None => Box::new(DenseModel::new(p.clone(), a.clone())),
    }
}

/// Checks one reported best mapping and its cost; `Err` names the first
/// property that fails.
pub fn check_best(
    p: &Problem,
    a: &Arch,
    density: Option<Density>,
    m: &Mapping,
    reported: &Cost,
    reported_score: f64,
) -> Result<(), String> {
    let bounds: Vec<u64> = (0..p.num_dims()).map(|d| p.bound(d)).collect();
    for (d, &bound) in bounds.iter().enumerate() {
        let product: u64 = m
            .levels()
            .iter()
            .map(|l| l.temporal[d] * l.spatial[d])
            .product();
        if product != bound {
            return Err(format!(
                "dim {d}: factor product {product} != bound {bound}"
            ));
        }
    }
    let model = fresh_model(p, a, density);
    let b = model
        .evaluate_detailed(m)
        .map_err(|e| format!("fresh evaluation rejects the reported mapping: {e}"))?;
    if b.cost != *reported {
        return Err(format!(
            "fresh evaluation {:?} != reported {:?}",
            b.cost, reported
        ));
    }
    if b.cost.edp().to_bits() != reported_score.to_bits() {
        return Err(format!(
            "reported score {reported_score:e} is not the EDP {:e}",
            b.cost.edp()
        ));
    }
    let macs: u128 = bounds.iter().map(|&x| x as u128).product();
    if b.macs != macs as f64 {
        return Err(format!(
            "MAC count {} != product of loop bounds {macs}",
            b.macs
        ));
    }
    check_dram(p, density, &b)
}

/// Every tensor crosses the DRAM boundary at least once: reads cover the
/// operands and writes cover the output (operands scaled by density).
fn check_dram(p: &Problem, density: Option<Density>, b: &Breakdown) -> Result<(), String> {
    let d = density.unwrap_or(Density {
        weight: 1.0,
        input: 1.0,
    });
    let bounds = p.bounds();
    let (mut operands, mut output) = (0.0f64, 0.0f64);
    for t in p.tensors() {
        let words = t.projection.footprint_f64(&bounds);
        match t.kind {
            TensorKind::Output => output += words,
            kind => operands += words * d.of(kind),
        }
    }
    let dram = b.per_level.first().ok_or("breakdown has no DRAM level")?;
    let slack = 1.0 - 1e-9;
    if dram.reads < operands * slack {
        return Err(format!(
            "DRAM reads {} below the operand footprint {operands}",
            dram.reads
        ));
    }
    if dram.writes < output * slack {
        return Err(format!(
            "DRAM writes {} below the output footprint {output}",
            dram.writes
        ));
    }
    Ok(())
}

/// The analytical per-level traffic of the spatially demoted mapping
/// matches the reference simulator's count.
pub fn check_refsim(p: &Problem, a: &Arch, m: &Mapping) -> Result<(), String> {
    let demoted = refsim::demote_spatial(m);
    let analytical = DenseModel::new(p.clone(), a.clone())
        .evaluate_detailed(&demoted)
        .map_err(|e| format!("demoted mapping rejected: {e}"))?;
    let sim = refsim::simulate(p, a, &demoted).map_err(|e| format!("refsim: {e}"))?;
    if analytical.macs as u64 != sim.macs {
        return Err(format!(
            "refsim MACs {} != analytical {}",
            sim.macs, analytical.macs
        ));
    }
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0);
    for (li, (an, si)) in analytical.per_level.iter().zip(&sim.per_level).enumerate() {
        if !close(an.reads, si.reads) || !close(an.writes, si.writes) {
            return Err(format!(
                "level {li}: analytical {}/{} vs refsim {}/{} reads/writes",
                an.reads, an.writes, si.reads, si.writes
            ));
        }
    }
    Ok(())
}
