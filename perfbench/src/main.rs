//! One batch of a benchmark workload, run in a fresh process.
//!
//! `perfbench batch --workload W --seed S --batch B --rounds R --trace 0|1
//! [--mapex PATH] [--work DIR]` sets the workload up, prints `ready`, runs
//! `R` whole rounds of the workload's ops, checks every op's output, and
//! prints one JSON line: per-op CPU and wall times, samples consumed, the
//! set-up's CPU time, the round's simulated EDP geomean, peak RSS, check
//! failures and (traced) per-layer figures. `perfbench/run.py` drives
//! batches and turns them into metrics.

mod checks;
mod cpu;
mod layers;
mod search_long;
mod serve_closed;
mod sweep_warm;
mod trace;

use cpu::CpuClock;
use mappers::{CrossEntropy, Dosa, Gamma, Mapper, RandomPruned, SimulatedAnnealing};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Command-line settings of one batch.
pub struct Settings {
    pub seed: u64,
    pub batch: u64,
    pub rounds: usize,
    pub trace: bool,
    pub mapex: PathBuf,
    pub work: PathBuf,
}

/// One timed op.
pub struct OpRecord {
    /// Index into the batch's kind list.
    pub kind: usize,
    /// CPU time the working process spent on the op.
    pub ms: f64,
    /// Wall time of the op (reported for reference, not a metric).
    pub wall_ms: f64,
    /// Samples the op consumed.
    pub evaluated: usize,
    /// The op failed (counted, left out of latency and throughput).
    pub failed: bool,
}

/// What a batch reports.
#[derive(Default)]
pub struct BatchReport {
    pub kinds: Vec<String>,
    pub ops: Vec<OpRecord>,
    /// Wall time of the timed phase.
    pub timed_s: f64,
    /// CPU time of the set-up phase.
    pub setup_cpu_s: f64,
    /// Peak resident memory of the working process, KiB.
    pub rss_kb: u64,
    /// Per-kind best EDP of the first round, checked equal on later rounds.
    pub edps: Vec<Option<f64>>,
    /// Output-check failures.
    pub errors: Vec<String>,
    /// Per-layer figures (traced batches only).
    pub layers: Vec<(&'static str, f64)>,
}

impl BatchReport {
    pub fn new(kinds: Vec<String>) -> Self {
        let n = kinds.len();
        BatchReport {
            kinds,
            edps: vec![None; n],
            ..BatchReport::default()
        }
    }

    /// Records `edp` for `kind`; every later round must reproduce it.
    pub fn record_edp(&mut self, kind: usize, edp: f64) {
        match self.edps[kind] {
            None => self.edps[kind] = Some(edp),
            Some(first) if first.to_bits() != edp.to_bits() => self.errors.push(format!(
                "{}: best EDP {edp:e} differs from the first round's {first:e}",
                self.kinds[kind]
            )),
            Some(_) => {}
        }
    }

    pub fn error(&mut self, kind: usize, msg: impl std::fmt::Display) {
        let line = format!("{}: {msg}", self.kinds[kind]);
        if self.errors.len() < 20 {
            self.errors.push(line);
        }
    }

    /// Geometric mean of the per-kind EDPs, summed in kind order so it is
    /// independent of the order the ops ran in.
    fn edp_geomean(&self) -> Option<f64> {
        let vals: Vec<f64> = self.edps.iter().flatten().copied().collect();
        if vals.is_empty() {
            return None;
        }
        Some((vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp())
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{\"kinds\": [");
        for (i, k) in self.kinds.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}",
                if i > 0 { ", " } else { "" },
                mse::json::escape(k)
            );
        }
        s.push_str("], \"ops\": [");
        for (i, o) in self.ops.iter().enumerate() {
            let _ = write!(
                s,
                "{}[{}, {:?}, {:?}, {}, {}]",
                if i > 0 { ", " } else { "" },
                o.kind,
                o.ms,
                o.wall_ms,
                o.evaluated,
                o.failed
            );
        }
        let geo = self
            .edp_geomean()
            .map_or("null".to_string(), |g| format!("{g:?}"));
        let _ = write!(
            s,
            "], \"timed_s\": {:?}, \"setup_cpu_s\": {:?}, \"rss_kb\": {}, \"edp_geomean\": {geo}, \"errors\": [",
            self.timed_s, self.setup_cpu_s, self.rss_kb
        );
        for (i, e) in self.errors.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}",
                if i > 0 { ", " } else { "" },
                mse::json::escape(e)
            );
        }
        s.push_str("], \"layers\": {");
        for (i, (k, v)) in self.layers.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(s, "{}\"{k}\": {v:?}", if i > 0 { ", " } else { "" });
        }
        s.push_str("}}");
        s
    }
}

/// Peak resident set of this process (`VmHWM`), KiB.
pub fn peak_rss_kb(pid: Option<u32>) -> u64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Deterministic order of one round's ops: a seeded Fisher–Yates shuffle,
/// so every round runs every kind once and a burst of host noise lands on
/// a different kind each round.
pub fn round_order(n: usize, seed: u64, batch: u64, round: u64) -> Vec<usize> {
    let mut state = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(batch.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(round.wrapping_mul(0x94d0_49bb_1331_11eb));
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The mapper of a family, as the CLI and the service name it.
pub fn mapper_named(family: &str) -> Box<dyn Mapper> {
    match family {
        "gamma" => Box::new(Gamma::new()),
        "annealing" => Box::new(SimulatedAnnealing::new()),
        "cem" => Box::new(CrossEntropy::new()),
        "dosa" => Box::new(Dosa::new()),
        _ => Box::new(RandomPruned::new()),
    }
}

/// Marks the end of set-up: `run.py` times set-up wall time up to this
/// line. Returns the CPU seconds this process has used so far.
pub fn ready() -> f64 {
    println!("ready");
    let _ = std::io::stdout().flush();
    CpuClock::this_process().seconds()
}

/// Times `f` in wall milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Times one op: its output, the CPU milliseconds `clock` advanced, and
/// the wall milliseconds.
pub fn time_op<T>(clock: CpuClock, f: impl FnOnce() -> T) -> (T, f64, f64) {
    let t = Instant::now();
    let (out, cpu_ms) = clock.time_ms(f);
    (out, cpu_ms, t.elapsed().as_secs_f64() * 1e3)
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench batch --workload search-long|sweep-warm|serve-closed --seed N \
         --batch N --rounds N --trace 0|1 [--mapex PATH] [--work DIR]"
    );
    std::process::exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) != Some("batch") {
        usage();
    }
    let get = |key: &str| {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let num = |key: &str, default: u64| -> u64 {
        get(key).map_or(default, |v| v.parse().unwrap_or_else(|_| usage()))
    };
    let workload = get("--workload").unwrap_or_else(|| usage());
    let settings = Settings {
        seed: num("--seed", 1),
        batch: num("--batch", 0),
        rounds: num("--rounds", 1).max(1) as usize,
        trace: num("--trace", 0) == 1,
        mapex: get("--mapex").map_or_else(|| PathBuf::from("mapex"), PathBuf::from),
        work: get("--work").map_or_else(std::env::temp_dir, PathBuf::from),
    };
    mse::quiet_sentinel_panics();
    let report = match workload.as_str() {
        "search-long" => search_long::run(&settings),
        "sweep-warm" => sweep_warm::run(&settings),
        "serve-closed" => serve_closed::run(&settings),
        _ => usage(),
    };
    match report {
        Ok(r) => println!("{}", r.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
