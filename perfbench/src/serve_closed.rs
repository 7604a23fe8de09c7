//! `serve-closed`: the `mapex serve` daemon (defaults plus `--store`),
//! driven closed-loop by two connections that each send their next request
//! only after the reply. The connections take turns, one request in
//! flight at a time, and each request is timed by the daemon's CPU time.
//!
//! Each connection uses its own architecture, so the store's recall (keyed
//! by architecture fingerprint) sees only that connection's history. Set-up
//! deposits an exact-match record for every problem in the mix and each
//! problem is searched once per batch, so every search recalls the same
//! prior whatever the request order: results are a function of the mix,
//! and the workload seed only orders it.

use crate::cpu::CpuClock;
use crate::layers::TraceAcc;
use crate::trace::traced_search;
use crate::{
    checks, mapper_named, ready, round_order, time_ms, time_op, BatchReport, OpRecord, Settings,
};
use arch::Arch;
use costmodel::{Cost, CostModel, DenseModel, GuardConfig, GuardPolicy, GuardedModel};
use mappers::{Budget, EdpEvaluator, RandomPruned};
use mapping::{MapSpace, Mapping};
use mse::json::{self, Value};
use mse::{EvalCache, EvalConfig, EvalPool, Mse, RunPolicy, WarmStore};
use problem::{zoo, Problem};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Searches per connection per batch; every fourth is a dosa search.
const SEARCHES: usize = 64;
/// Samples per search request of a fast family.
const SAMPLES: usize = 1_000;
/// Samples per dosa search request: dosa spends 10–30× more host time per
/// sample, so this keeps its requests a mode of their own (p90 lands in
/// it) while a batch stays short.
const DOSA_SAMPLES: usize = 300;
/// Samples of the set-up search that produces each pre-populated record.
const PREPOP_SAMPLES: usize = 300;
/// Tiny GEMMs in the mix (checked against the reference simulator).
const TINY_GEMMS: usize = 8;
/// The daemon's default deadline; no search comes near it.
const DEADLINE: Duration = Duration::from_secs(30);
const ARCHS: [&str; 2] = ["accel-a", "accel-b"];
/// Fast families, in rotation; dosa takes every fourth slot.
const FAST: [&str; 4] = ["gamma", "annealing", "cem", "random-pruned"];
/// The request the daemon rejects: the service's mapper registry lacks the
/// `exhaustive-tiles` mapper that `mapex search --mapper` accepts.
const FAILING_PROBLEM: &str = "GEMM;tiny-exh;B=2,M=32,K=32,N=32";

fn arch_named(name: &str) -> Arch {
    if name == "accel-a" {
        Arch::accel_a()
    } else {
        Arch::accel_b()
    }
}

/// The search mix of one connection: zoo layers distinct by shape (the
/// store's edit distance compares dimension bounds only) followed by tiny
/// GEMMs, each with its mapper and fixed search seed.
fn mix(arch: &Arch) -> Result<Vec<(Problem, &'static str, u64)>, String> {
    let mut problems: Vec<Problem> = Vec::new();
    let distinct = |ps: &[Problem], p: &Problem| ps.iter().all(|q| q.edit_distance(p) > 0);
    let zoo_layers = ["vgg16", "resnet50", "mobilenet_v2", "mnasnet", "bert_large"]
        .iter()
        .flat_map(|n| zoo::model(n).unwrap_or_default());
    for p in zoo_layers {
        if problems.len() == SEARCHES - TINY_GEMMS {
            break;
        }
        if distinct(&problems, &p) && MapSpace::new(p.clone(), arch.clone()).is_mappable() {
            problems.push(p);
        }
    }
    for i in 0..TINY_GEMMS as u64 {
        let p = Problem::gemm(format!("tiny-{i}"), 2, 16 + 8 * i, 32, 24 + 4 * i);
        if distinct(&problems, &p) {
            problems.push(p);
        }
    }
    if problems.len() != SEARCHES {
        return Err(format!(
            "mix has {} distinct problems, wants {SEARCHES}",
            problems.len()
        ));
    }
    let mut fast = FAST.iter().cycle();
    Ok(problems
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let m = if i % 4 == 3 {
                "dosa"
            } else {
                fast.next().copied().unwrap_or("gamma")
            };
            (p, m, 100 + i as u64)
        })
        .collect())
}

fn is_tiny(p: &Problem) -> bool {
    p.name().starts_with("tiny-")
}

/// One request of a connection's plan.
#[derive(Clone, Copy)]
enum Step {
    /// Search mix entry `i`.
    Search(usize),
    /// Re-cost the mapping mix entry `i`'s search returned.
    Evaluate(usize),
    /// The known-failing request.
    Failing,
}

/// A connection's request order: the mix in a seeded order, an evaluate of
/// the previous search's mapping after every fourth search, and the failing
/// request at a seeded position.
fn plan(seed: u64, batch: u64, conn: u64) -> Vec<Step> {
    let order = round_order(SEARCHES, seed, batch, conn);
    let mut steps = Vec::new();
    for (pos, &i) in order.iter().enumerate() {
        steps.push(Step::Search(i));
        if pos % 4 == 3 {
            steps.push(Step::Evaluate(order[pos - 1]));
        }
    }
    let at = round_order(steps.len() + 1, seed, batch, conn + 7)[0];
    steps.insert(at, Step::Failing);
    steps
}

fn samples_for(mapper: &str) -> usize {
    if mapper == "dosa" {
        DOSA_SAMPLES
    } else {
        SAMPLES
    }
}

fn request_line(
    id: u64,
    arch: &str,
    step: Step,
    mix: &[(Problem, &str, u64)],
    found: &[Option<String>],
) -> String {
    match step {
        Step::Search(i) => {
            let (p, m, seed) = &mix[i];
            format!(
                "{{\"id\": {id}, \"op\": \"search\", \"problem\": {}, \"arch\": \"{arch}\", \
                 \"mapper\": \"{m}\", \"samples\": {}, \"seed\": {seed}}}",
                json::escape(&problem::codec::to_spec(p)),
                samples_for(m)
            )
        }
        Step::Evaluate(i) => format!(
            "{{\"id\": {id}, \"op\": \"evaluate\", \"problem\": {}, \"arch\": \"{arch}\", \
             \"mapping\": {}}}",
            json::escape(&problem::codec::to_spec(&mix[i].0)),
            json::escape(found[i].as_deref().unwrap_or(""))
        ),
        Step::Failing => format!(
            "{{\"id\": {id}, \"op\": \"search\", \"problem\": \"{FAILING_PROBLEM}\", \
             \"arch\": \"{arch}\", \"mapper\": \"exhaustive-tiles\", \"samples\": 500}}"
        ),
    }
}

/// A closed-loop JSON-lines client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Result<Self, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = s.set_nodelay(true);
        let _ = s.set_read_timeout(Some(Duration::from_secs(120)));
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { reader, writer: s })
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut out = String::new();
        match self.reader.read_line(&mut out) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(out),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn call_json(&mut self, line: &str) -> Result<Value, String> {
        let text = self.call(line)?;
        json::parse(text.trim()).map_err(|e| format!("bad response {text:?}: {e}"))
    }
}

/// The daemon process; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(mapex: &Path, store: &Path) -> Result<Self, String> {
        let child = Command::new(mapex)
            .args(["serve", "--addr", "127.0.0.1:0", "--store"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", mapex.display()))?;
        // Owned from here on, so an early return kills and reaps it.
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let stdout = daemon.child.stdout.as_mut().ok_or("no daemon stdout")?;
        // Byte-wise up to the newline: the banner is all this reads, and
        // the daemon's last line later fits in the pipe unread.
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        while stdout.read(&mut byte).map_err(|e| e.to_string())? == 1 && byte[0] != b'\n' {
            line.push(byte[0]);
        }
        let line = String::from_utf8_lossy(&line).into_owned();
        daemon.addr = line
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGTERM (graceful drain), then wait; SIGKILL if it lingers.
    fn stop(&mut self) -> Result<(), String> {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        // SAFETY: plain syscall on our own child's pid.
        unsafe { kill(self.child.id() as i32, 15) };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited {status} after drain"))
                };
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err("daemon did not drain within 20 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The set-up search behind each pre-populated record.
fn prepop_best(p: &Problem, a: &Arch, seed: u64) -> Option<(Mapping, f64, usize)> {
    let guarded = GuardedModel::new(
        DenseModel::new(p.clone(), a.clone()),
        GuardConfig::new(GuardPolicy::Reject),
    );
    let r = Mse::new(&guarded).run(&RandomPruned::new(), Budget::samples(PREPOP_SAMPLES), seed);
    r.best.map(|(m, _)| (m, r.best_score, r.evaluated))
}

/// Deposits an exact-match record for every problem of every connection.
fn prepopulate(
    store: &WarmStore,
    mixes: &[Vec<(Problem, &'static str, u64)>],
    acc: &mut TraceAcc,
) -> Result<usize, String> {
    let mut n = 0;
    for (c, mix) in mixes.iter().enumerate() {
        let arch = arch_named(ARCHS[c]);
        let fp = WarmStore::arch_fingerprint(&arch, None);
        for (p, _, seed) in mix {
            let (m, score, evaluated) = prepop_best(p, &arch, *seed)
                .ok_or_else(|| format!("{}: no set-up mapping", p.name()))?;
            let (res, ms) =
                time_ms(|| store.deposit(fp, p, &m, "random-pruned", score, evaluated as u64));
            res.map_err(|e| format!("store deposit: {e}"))?;
            acc.store_deposit.0 += ms * 1e-3;
            acc.store_deposit.1 += 1;
            n += 1;
        }
    }
    Ok(n)
}

/// What one connection saw.
struct ConnLog {
    /// (step, daemon CPU ms, wall ms, response line).
    steps: Vec<(Step, f64, f64, String)>,
}

/// Drives every connection's plan in lockstep from one thread: connection
/// 0's next request, then connection 1's, and so on. Each connection sends
/// its next request only after its reply, and one request is in flight at
/// a time, so the daemon's CPU time across a round trip is that request's.
fn drive(
    addr: &str,
    plans: &[Vec<Step>],
    mixes: &[Vec<(Problem, &'static str, u64)>],
    clock: CpuClock,
) -> Result<Vec<ConnLog>, String> {
    let mut clients = plans
        .iter()
        .map(|_| Client::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut logs: Vec<ConnLog> = plans
        .iter()
        .map(|p| ConnLog {
            steps: Vec::with_capacity(p.len()),
        })
        .collect();
    let mut found: Vec<Vec<Option<String>>> = mixes.iter().map(|m| vec![None; m.len()]).collect();
    let longest = plans.iter().map(Vec::len).max().unwrap_or(0);
    for seq in 0..longest {
        for (conn, client) in clients.iter_mut().enumerate() {
            let Some(&step) = plans[conn].get(seq) else {
                continue;
            };
            let id = (conn as u64 + 1) * 100_000 + seq as u64;
            let line = request_line(id, ARCHS[conn], step, &mixes[conn], &found[conn]);
            let (resp, cpu_ms, wall_ms) = time_op(clock, || client.call(&line));
            let text = resp.map_err(|e| format!("connection {conn}: {e}"))?;
            if let Step::Search(i) = step {
                found[conn][i] = json::parse(text.trim())
                    .ok()
                    .and_then(|v| v.get("mapping").and_then(Value::as_str).map(str::to_string));
            }
            logs[conn].steps.push((step, cpu_ms, wall_ms, text));
        }
    }
    Ok(logs)
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

pub fn run(s: &Settings) -> Result<BatchReport, String> {
    std::fs::create_dir_all(&s.work).map_err(|e| format!("work dir: {e}"))?;
    let store_path = s
        .work
        .join(format!("serve-{}-{}.store", std::process::id(), s.batch));
    let replica_path: PathBuf =
        s.work
            .join(format!("replica-{}-{}.store", std::process::id(), s.batch));
    let cleanup = || {
        for p in [&store_path, &replica_path] {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(WarmStore::backup_path(p));
        }
    };
    cleanup();
    let result = run_in(s, &store_path, &replica_path);
    cleanup();
    result
}

fn run_in(s: &Settings, store_path: &Path, replica_path: &Path) -> Result<BatchReport, String> {
    let mixes: Vec<_> = ARCHS
        .iter()
        .map(|a| mix(&arch_named(a)))
        .collect::<Result<_, _>>()?;
    let per_conn = SEARCHES + 2;
    let mut kinds = Vec::new();
    for (c, mix) in mixes.iter().enumerate() {
        for (p, m, _) in mix {
            kinds.push(format!("c{c} {m} {}", p.name()));
        }
        kinds.push(format!("c{c} evaluate"));
        kinds.push(format!("c{c} exhaustive-tiles"));
    }
    let mut rep = BatchReport::new(kinds);
    let mut acc = TraceAcc::default();
    let prepopulated = {
        let store = WarmStore::open(store_path).map_err(|e| format!("store: {e}"))?;
        prepopulate(&store, &mixes, &mut TraceAcc::default())?
    };
    let mut daemon = Daemon::start(&s.mapex, store_path)?;
    let addr = daemon.addr.clone();
    // Warm-up: a ping, then one search and one evaluate per connection on
    // a problem outside the mix (it deposits a record at distance > 0 from
    // every mix problem, so no recall changes).
    let mut warm_searches = 0;
    {
        let mut c = Client::connect(&addr)?;
        let pong = c.call_json("{\"id\": 1, \"op\": \"ping\"}")?;
        if pong.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err("ping failed".to_string());
        }
        for arch in ARCHS {
            let r = c.call_json(&format!(
                "{{\"id\": 2, \"op\": \"search\", \"problem\": \"GEMM;warm-up;B=4,M=48,K=40,N=56\", \
                 \"arch\": \"{arch}\", \"mapper\": \"gamma\", \"samples\": 500}}"
            ))?;
            let m = r
                .get("mapping")
                .and_then(Value::as_str)
                .ok_or("warm-up search failed")?;
            warm_searches += 1;
            c.call_json(&format!(
                "{{\"id\": 3, \"op\": \"evaluate\", \"problem\": \"GEMM;warm-up;B=4,M=48,K=40,N=56\", \
                 \"arch\": \"{arch}\", \"mapping\": {}}}",
                json::escape(m)
            ))?;
        }
    }
    let clock = CpuClock::of_process(daemon.pid())?;
    rep.setup_cpu_s = ready() + clock.seconds();
    let plans: Vec<Vec<Step>> = (0..ARCHS.len())
        .map(|c| plan(s.seed, s.batch, c as u64))
        .collect();
    let t = Instant::now();
    let logs = drive(&addr, &plans, &mixes, clock)?;
    rep.timed_s = t.elapsed().as_secs_f64();
    let mut searches_ok = 0u64;
    let (mut work_sent, mut failing_sent) = (0u64, 0u64);
    for (c, log) in logs.iter().enumerate() {
        let arch = arch_named(ARCHS[c]);
        let mix = &mixes[c];
        let mut scores: Vec<Option<(f64, f64, f64)>> = vec![None; mix.len()];
        for (seq, (step, ms, wall_ms, text)) in log.steps.iter().enumerate() {
            let id = (c as u64 + 1) * 100_000 + seq as u64;
            let kind = c * per_conn
                + match step {
                    Step::Search(i) => *i,
                    Step::Evaluate(_) => SEARCHES,
                    Step::Failing => SEARCHES + 1,
                };
            let v = match json::parse(text.trim()) {
                Ok(v) => v,
                Err(e) => {
                    rep.error(kind, format!("unparsable response: {e}"));
                    continue;
                }
            };
            if v.get("id").and_then(Value::as_u64) != Some(id) {
                rep.error(
                    kind,
                    format!(
                        "response id {:?} answers request {id}",
                        v.get("id").map(Value::to_text)
                    ),
                );
            }
            let ok = v.get("ok").and_then(Value::as_bool) == Some(true);
            let mut evaluated = 0;
            let mut failed = false;
            match *step {
                Step::Search(i) => {
                    work_sent += 1;
                    let (p, _, _) = &mix[i];
                    if !ok {
                        rep.error(kind, format!("search failed: {}", text.trim()));
                        failed = true;
                    } else {
                        searches_ok += 1;
                        evaluated = v.get("evaluated").and_then(Value::as_usize).unwrap_or(0);
                        match check_search(&v, p, &arch) {
                            Ok(sc) => {
                                rep.record_edp(kind, sc.0);
                                scores[i] = Some(sc);
                            }
                            Err(e) => rep.error(kind, e),
                        }
                    }
                }
                Step::Evaluate(i) => {
                    work_sent += 1;
                    let got = (
                        num(&v, "score"),
                        num(&v, "latency_cycles"),
                        num(&v, "energy_uj"),
                    );
                    let bits = |x: Option<f64>| x.map(f64::to_bits);
                    let same = scores[i].is_some_and(|(s, l, e)| {
                        bits(got.0) == Some(s.to_bits())
                            && bits(got.1) == Some(l.to_bits())
                            && bits(got.2) == Some(e.to_bits())
                    });
                    if !ok || !same {
                        rep.error(
                            kind,
                            format!(
                                "evaluate does not reproduce the search's cost: {}",
                                text.trim()
                            ),
                        );
                    }
                }
                Step::Failing => {
                    failing_sent += 1;
                    let code = v
                        .get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(Value::as_str);
                    failed = !ok;
                    if !ok && code != Some("bad-request") {
                        rep.error(kind, format!("unexpected failure: {}", text.trim()));
                    }
                }
            }
            rep.ops.push(OpRecord {
                kind,
                ms: *ms,
                wall_ms: *wall_ms,
                evaluated,
                failed,
            });
        }
    }
    // Per-layer probes go before `stats`, so it counts them too.
    let mut probe = Client::connect(&addr)?;
    if s.trace {
        let m = logs[0].steps.iter().find_map(|(st, _, _, t)| match st {
            Step::Search(i) => json::parse(t.trim()).ok().and_then(|v| {
                v.get("mapping")
                    .and_then(Value::as_str)
                    .map(|m| (*i, m.to_string()))
            }),
            _ => None,
        });
        let (i, m) = m.ok_or("no mapping to probe with")?;
        let probe_line = request_line(9, ARCHS[0], Step::Evaluate(0), &mixes[0][i..=i], &[Some(m)]);
        for _ in 0..50 {
            let (r, ms) = time_ms(|| probe.call("{\"id\": 8, \"op\": \"ping\"}"));
            r?;
            acc.ping_ms.push(ms);
            let (r, ms) = time_ms(|| probe.call(&probe_line));
            r?;
            acc.evaluate_ms.push(ms);
            work_sent += 1;
        }
    }
    let stats = probe.call_json("{\"id\": 10, \"op\": \"stats\"}")?;
    rep.rss_kb = crate::peak_rss_kb(Some(daemon.pid()));
    drop(probe);
    daemon.stop()?;
    // Reconcile the daemon's counters with what was sent.
    let warm_work = 2 * warm_searches;
    let count = |path: &[&str]| {
        let mut v = Some(&stats);
        for k in path {
            v = v.and_then(|x| x.get(k));
        }
        v.and_then(Value::as_u64).unwrap_or(u64::MAX)
    };
    let expect = [
        (vec!["accepted"], work_sent + warm_work),
        (vec!["completed"], work_sent + warm_work),
        (vec!["invalid"], failing_sent),
        (vec!["rejected_overload"], 0),
        (vec!["degraded"], 0),
        (vec!["request_panics"], 0),
        (
            vec!["store", "entries"],
            prepopulated as u64 + searches_ok + warm_searches,
        ),
        (vec!["store", "deposits"], searches_ok + warm_searches),
    ];
    for (path, want) in expect {
        let got = count(&path);
        if got != want {
            rep.errors.push(format!(
                "daemon stats {} = {got}, expected {want}",
                path.join(".")
            ));
        }
    }
    if s.trace {
        let rate = |a: u64, b: u64| {
            if a + b == 0 {
                0.0
            } else {
                a as f64 / (a + b) as f64
            }
        };
        acc.service_cache_hit_rate = rate(count(&["cache", "hits"]), count(&["cache", "misses"]));
        acc.store_hit_rate = rate(count(&["store", "hits"]), count(&["store", "misses"]));
        acc.store_records = count(&["store", "entries"]) as f64;
        replica(&mut rep, &mut acc, &mixes, &plans, &logs, replica_path)?;
        rep.layers = acc.metrics();
    }
    Ok(rep)
}

/// Checks one search response; returns its (score, latency, energy).
fn check_search(v: &Value, p: &Problem, arch: &Arch) -> Result<(f64, f64, f64), String> {
    if v.get("status").and_then(Value::as_str) != Some("succeeded")
        || v.get("degraded").and_then(Value::as_bool) != Some(false)
    {
        return Err("search did not succeed undegraded".to_string());
    }
    if v.get("warm_start").and_then(Value::as_bool) != Some(true)
        || v.get("warm_distance").and_then(Value::as_u64) != Some(0)
    {
        return Err("search did not recall its exact-match record".to_string());
    }
    let (Some(score), Some(lat), Some(energy)) = (
        num(v, "score"),
        num(v, "latency_cycles"),
        num(v, "energy_uj"),
    ) else {
        return Err("response lacks its cost".to_string());
    };
    let spec = v
        .get("mapping")
        .and_then(Value::as_str)
        .ok_or("response lacks a mapping")?;
    let m = mapping::codec::from_spec(spec).map_err(|e| format!("mapping does not parse: {e}"))?;
    let cost = Cost {
        latency_cycles: lat,
        energy_uj: energy,
    };
    checks::check_best(p, arch, None, &m, &cost, score)?;
    if is_tiny(p) {
        checks::check_refsim(p, arch, &m)?;
    }
    Ok((score, lat, energy))
}

/// The store recall and prior validation a search request goes through
/// in the daemon, replayed in-process.
fn recall_prior(store: &WarmStore, p: &Problem, arch: &Arch, fp: u64) -> Option<Mapping> {
    let (src, spec, _) = store.recall(p, fp)?;
    let raw = mapping::codec::from_spec(&spec).ok()?;
    if !raw.is_legal(&src, arch) {
        return None;
    }
    let scaled = raw.scale_to(&src, p, arch)?;
    if !scaled.is_legal(p, arch) {
        return None;
    }
    let guarded = GuardedModel::new(
        DenseModel::new(p.clone(), arch.clone()),
        GuardConfig::new(GuardPolicy::Reject),
    );
    guarded
        .evaluate(&scaled)
        .ok()
        .filter(|c| c.edp().is_finite())
        .map(|_| scaled)
}

/// Traced batches: replays every connection's searches in-process, on the
/// daemon's configuration, once through `Mse::run_resilient_shared` and
/// once through the traced copy of its stack. Both must reproduce the
/// daemon's EDP exactly. Also drives a store of its own with the same
/// deposit/recall sequence, timing each call.
fn replica(
    rep: &mut BatchReport,
    acc: &mut TraceAcc,
    mixes: &[Vec<(Problem, &'static str, u64)>],
    plans: &[Vec<Step>],
    logs: &[ConnLog],
    path: &Path,
) -> Result<(), String> {
    let store = WarmStore::open(path).map_err(|e| format!("replica store: {e}"))?;
    prepopulate(&store, mixes, acc)?;
    let cfg = EvalConfig::full();
    let pool = EvalPool::new(cfg);
    let mut caches: HashMap<(usize, usize, bool), EvalCache> = HashMap::new();
    let per_conn = SEARCHES + 2;
    for (c, steps) in plans.iter().enumerate() {
        let arch = arch_named(ARCHS[c]);
        let fp = WarmStore::arch_fingerprint(&arch, None);
        for (pos, step) in steps.iter().enumerate() {
            let Step::Search(i) = *step else { continue };
            let (p, name, seed) = &mixes[c][i];
            let daemon_score = json::parse(logs[c].steps[pos].3.trim())
                .ok()
                .and_then(|v| num(&v, "score"));
            let (prior, ms) = time_ms(|| recall_prior(&store, p, &arch, fp));
            acc.store_recall.0 += ms * 1e-3;
            acc.store_recall.1 += 1;
            let budget = Budget {
                max_samples: Some(samples_for(name)),
                max_time: Some(DEADLINE.mul_f64(0.9)),
            };
            let mapper = || {
                let mut m = mapper_named(name);
                if let Some(w) = &prior {
                    m.set_seeds(vec![w.clone()]);
                }
                m
            };
            let plain = |cache: &EvalCache| {
                let guarded = GuardedModel::new(
                    Box::new(DenseModel::new(p.clone(), arch.clone())) as Box<dyn CostModel>,
                    GuardConfig::new(GuardPolicy::Reject),
                );
                let evaluator = EdpEvaluator::new(&guarded);
                let policy = RunPolicy::with_retries(0)
                    .with_eval(cfg)
                    .with_deadline(Some(Instant::now() + DEADLINE));
                Mse::new(&guarded)
                    .run_resilient_shared(
                        mapper().as_ref(),
                        &evaluator,
                        budget,
                        *seed,
                        policy,
                        Some(&guarded),
                        &pool,
                        cache,
                    )
                    .result
            };
            let traced = |cache: &EvalCache| {
                let model: Box<dyn CostModel> = Box::new(DenseModel::new(p.clone(), arch.clone()));
                let guard = GuardConfig::new(GuardPolicy::Reject);
                let deadline = Some(Instant::now() + DEADLINE);
                traced_search(
                    model,
                    guard,
                    mapper().as_ref(),
                    budget,
                    *seed,
                    &pool,
                    cache,
                    deadline,
                )
            };
            for key in [(c, i, false), (c, i, true)] {
                caches
                    .entry(key)
                    .or_insert_with(|| EvalCache::new(cfg.cache_capacity));
            }
            let (plain_cache, traced_cache) = (&caches[&(c, i, false)], &caches[&(c, i, true)]);
            let traced_first = pos % 2 == 0;
            let mut plain_run = None;
            if !traced_first {
                plain_run = Some(time_ms(|| plain(plain_cache)));
            }
            let ((t_res, totals), t_ms) = time_ms(|| traced(traced_cache));
            if traced_first {
                plain_run = Some(time_ms(|| plain(plain_cache)));
            }
            let (p_res, p_ms) = plain_run.expect("plain run made");
            acc.add_op(name, &totals, t_ms * 1e-3);
            acc.plain_secs += p_ms * 1e-3;
            acc.searches += 1;
            acc.evaluated += t_res.evaluated as u64;
            acc.pruned += t_res.pruned as u64;
            acc.pareto_len += t_res.pareto.len() as u64;
            let kind = c * per_conn + i;
            let bits = |x: Option<f64>| x.map(f64::to_bits);
            if bits(p_res.as_ref().map(|r| r.best_score)) != bits(daemon_score)
                || bits(Some(t_res.best_score)) != bits(daemon_score)
            {
                rep.error(
                    kind,
                    "in-process replay does not reproduce the daemon's EDP",
                );
            }
            if let Some((m, _)) = &t_res.best {
                let (r, ms) = time_ms(|| {
                    store.deposit(fp, p, m, name, t_res.best_score, t_res.evaluated as u64)
                });
                r.map_err(|e| format!("replica deposit: {e}"))?;
                acc.store_deposit.0 += ms * 1e-3;
                acc.store_deposit.1 += 1;
            }
        }
    }
    let (hits, misses) = caches
        .iter()
        .filter(|(k, _)| k.2)
        .fold((0, 0), |(h, m), (_, c)| {
            (h + c.stats().hits, m + c.stats().misses)
        });
    acc.cache_hits += hits;
    acc.cache_misses += misses;
    Ok(())
}
