//! The three workloads: set-up, the timed window, and the metrics.
//!
//! * `sf0.1-power`: SF 0.1 generated in memory from the seed; one session
//!   runs Q1–Q15 in order with the pinned parameters, pass after pass.
//! * `sf0.001-serve`: SF 0.001 generated in memory from the seed; two
//!   closed-loop sessions share one `Server` and each issues its own
//!   seeded stream of Q1–Q15 with drawn parameters.
//! * `sf1-store`: the SF 1 store opened with `tpcd::open_catalog`; one
//!   session runs Q1–Q15 with the pinned parameters under a 750 MiB
//!   per-query budget, in the order the seed permutes them to.
//!
//! Every statement goes through `flatalg_server::Session::run_query`, is
//! timed alone, and is checked against the oracle after the window.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use flatalg_server::{Server, ServerConfig, Session};
use moa::catalog::Catalog;
use monet::store::OpenOptions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::RelDb;
use tpcd::LoadReport;
use tpcd_queries::{all_queries, Params, Query, QueryResult};

use crate::oracle::{ensure_store, Oracle, Verdict};
use crate::params::{ParamGen, Stmt};
use crate::stats::{geomean, median, min, quantile, Metrics, MIB};
use crate::traced::Layers;

/// Per-query byte budget of `sf1-store`: within about 8% of Q1's charged
/// peak at SF 1, so a live-set regression fails the run.
pub const STORE_BUDGET: u64 = 750 << 20;
/// Closed-loop client sessions of `sf0.001-serve`.
pub const SERVE_CLIENTS: usize = 2;
/// Data seed of the store: building an SF 1 store takes ~25 s and ~4 GB,
/// so it is built once per checkout from the seed every harness binary
/// uses, and the run seed permutes the statement order instead.
pub const STORE_DATA_SEED: u64 = 19980223;
/// Statements of the serving stream the traced run replays through the
/// layer chain (ten passes' worth).
const SERVE_TRACED_STMTS: usize = 150;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Power,
    Serve,
    Store,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Power, Workload::Serve, Workload::Store];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Power => "sf0.1-power",
            Workload::Serve => "sf0.001-serve",
            Workload::Store => "sf1-store",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Command-line options of one run.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Every workload at SF 0.001 with one pass / a short window.
    pub smoke: bool,
    /// Corrupt one reference result (self-test of the oracle gate).
    pub corrupt_oracle: bool,
    /// Where the store and scratch files go.
    pub work_dir: PathBuf,
}

impl Args {
    fn sf(&self) -> f64 {
        match (self.smoke, self.workload) {
            (true, _) | (false, Workload::Serve) => 0.001,
            (false, Workload::Power) => 0.1,
            (false, Workload::Store) => 1.0,
        }
    }

    fn budget(&self) -> Option<u64> {
        (self.workload == Workload::Store).then_some(STORE_BUDGET)
    }

    /// Set-ups per run; `setup_s` is their median.
    fn setups(&self) -> usize {
        match (self.smoke, self.workload) {
            (true, _) => 1,
            (false, Workload::Power) => 3,
            (false, Workload::Serve) => 15,
            (false, Workload::Store) => 5,
        }
    }

    /// Fewest timed passes of the pass workloads.
    fn min_passes(&self) -> usize {
        match (self.smoke, self.workload) {
            (true, _) => 1,
            (false, Workload::Store) => 2,
            (false, _) => 3,
        }
    }
}

/// What a run produced: the configuration line, the oracle verdict, and
/// the metrics.
pub struct Outcome {
    pub config: String,
    pub verdict: Verdict,
    pub metrics: Metrics,
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// A loaded catalog plus what the oracle and the parameter generator need.
struct World {
    cat: Catalog,
    params: Params,
    /// Clerks in the data (Q13's parameter domain).
    clerks: u32,
    /// Row store for the oracle; `None` for the store workload, whose
    /// reference results were saved with the store.
    rel: Option<RelDb>,
    data_bytes: u64,
    /// Bytes `tpcd::open_catalog` mapped, and the open times in ms.
    mapped_bytes: u64,
    open_ms: Vec<f64>,
    /// Layer timings of the last set-up (traced run only).
    load: Option<(f64, LoadReport)>,
}

fn setup_memory(sf: f64, seed: u64, repeats: usize, times: &mut Vec<f64>) -> World {
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t = Instant::now();
        let data = tpcd::generate(sf, seed);
        let gen_s = t.elapsed().as_secs_f64();
        let (cat, report) = tpcd::load_bats(&data);
        times.push(t.elapsed().as_secs_f64());
        last = Some((data, cat, report, gen_s));
    }
    let (data, cat, report, gen_s) = last.expect("at least one set-up");
    World {
        params: Params::for_data(&data),
        clerks: data.clerk_count,
        rel: Some(tpcd::load_rowstore(&data)),
        data_bytes: (report.base_bytes + report.dv_bytes) as u64,
        cat,
        mapped_bytes: 0,
        open_ms: Vec::new(),
        load: Some((gen_s, report)),
    }
}

fn open_store(dir: &Path, repeats: usize, times: &mut Vec<f64>) -> Result<World, String> {
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t = Instant::now();
        let o = tpcd::open_catalog(dir, None, &OpenOptions::default())
            .map_err(|e| format!("open {}: {e}", dir.display()))?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(o);
    }
    let o = last.expect("at least one open");
    Ok(World {
        params: Params::for_sf(o.sf),
        clerks: tpcd::gen::clerk_count_for_sf(o.sf),
        rel: None,
        data_bytes: o.mapped_bytes,
        mapped_bytes: o.mapped_bytes,
        open_ms: times.iter().map(|s| s * 1e3).collect(),
        cat: o.catalog,
        load: None,
    })
}

// ---------------------------------------------------------------------------
// Timed execution
// ---------------------------------------------------------------------------

/// Untraced statements of one run, in execution order per client.
#[derive(Default)]
struct Records {
    /// Latency (s) of timed statements, per query.
    by_query: Vec<Vec<f64>>,
    all: Vec<f64>,
    /// Wall time (s) of each timed pass (pass workloads only).
    passes: Vec<f64>,
    /// Wall time (s) of the timed window.
    window_s: f64,
    /// Highest charged peak of any statement, bytes.
    peak: u64,
    /// Key and result of every statement run, warm-up included.
    results: Vec<(String, Result<QueryResult, String>)>,
}

impl Records {
    fn new() -> Records {
        Records { by_query: vec![Vec::new(); 15], ..Records::default() }
    }

    fn merge(&mut self, other: Records) {
        for (a, b) in self.by_query.iter_mut().zip(other.by_query) {
            a.extend(b);
        }
        self.all.extend(other.all);
        self.peak = self.peak.max(other.peak);
        self.results.extend(other.results);
    }

    /// Run one statement; `timed` statements count towards latencies.
    fn run(&mut self, session: &Session, queries: &[Query], stmt: &Stmt, timed: bool) -> f64 {
        let t = Instant::now();
        let r = session.run_query(&queries[stmt.qi], &stmt.params);
        let lat = t.elapsed().as_secs_f64();
        self.peak = self.peak.max(session.ctx().mem.charged_peak());
        if timed {
            self.by_query[stmt.qi].push(lat);
            self.all.push(lat);
        }
        self.results.push((stmt.key.clone(), r.map_err(|e| e.to_string())));
        lat
    }

    /// Share of statements whose (query, parameters) already ran.
    fn repeat_share(&self) -> f64 {
        let distinct: HashSet<&String> = self.results.iter().map(|(k, _)| k).collect();
        1.0 - distinct.len() as f64 / self.results.len().max(1) as f64
    }
}

fn session<'s, 'db>(server: &'s Server<'db>, budget: Option<u64>) -> Session<'s, 'db> {
    let s = server.session();
    if budget.is_some() {
        s.ctx().mem.set_budget(budget);
    }
    s
}

/// One untimed warm-up pass, then timed passes until `seconds` have gone
/// by and at least `min_passes` ran.
fn run_passes(
    server: &Server,
    stmts: &[Stmt],
    budget: Option<u64>,
    seconds: f64,
    min_passes: usize,
) -> Records {
    let queries = all_queries();
    let s = session(server, budget);
    let mut rec = Records::new();
    for stmt in stmts {
        rec.run(&s, &queries, stmt, false);
    }
    let start = Instant::now();
    while rec.passes.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        for stmt in stmts {
            rec.run(&s, &queries, stmt, true);
        }
        rec.passes.push(t.elapsed().as_secs_f64());
    }
    rec.window_s = start.elapsed().as_secs_f64();
    rec
}

/// `SERVE_CLIENTS` closed-loop sessions, each warming up with the pinned
/// statements and then issuing its seeded stream for `seconds`.
fn run_serve(
    server: &Server,
    world: &World,
    seed: u64,
    seconds: f64,
) -> (Records, HashMap<String, Stmt>) {
    let barrier = Barrier::new(SERVE_CLIENTS);
    let per_client: Vec<(Records, HashMap<String, Stmt>, Instant, Instant)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SERVE_CLIENTS)
                .map(|c| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let queries = all_queries();
                        let s = session(server, None);
                        let mut gen =
                            ParamGen::new(seed, c as u64, world.params.clone(), world.clerks);
                        let mut rec = Records::new();
                        let mut stmts = HashMap::new();
                        for qi in 0..15 {
                            let stmt = Stmt::pinned(qi, &world.params);
                            rec.run(&s, &queries, &stmt, false);
                            stmts.insert(stmt.key.clone(), stmt);
                        }
                        barrier.wait();
                        let start = Instant::now();
                        while start.elapsed().as_secs_f64() < seconds {
                            let stmt = gen.next_stmt();
                            rec.run(&s, &queries, &stmt, true);
                            stmts.entry(stmt.key.clone()).or_insert(stmt);
                        }
                        (rec, stmts, start, Instant::now())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("serving client panicked")).collect()
        });
    let mut rec = Records::new();
    let mut stmts = HashMap::new();
    let first = per_client.iter().map(|c| c.2).min().expect("clients");
    let last = per_client.iter().map(|c| c.3).max().expect("clients");
    for (r, s, _, _) in per_client {
        rec.merge(r);
        stmts.extend(s);
    }
    rec.window_s = (last - first).as_secs_f64();
    (rec, stmts)
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

fn config_line(args: &Args, sf: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (threads, min_rows, morsel) = monet::par::config_key();
    let data_seed = if args.workload == Workload::Store { STORE_DATA_SEED } else { args.seed };
    format!(
        "{{\"config\": {{\"workload\": \"{}\", \"nproc\": {nproc}, \"threads\": {threads}, \
         \"min_rows\": {}, \"morsel_rows\": {morsel}, \"sf\": {sf}, \"seed\": {}, \
         \"data_seed\": {data_seed}, \"budget_bytes\": {}, \"store_version\": {}, \
         \"clients\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}}}}}",
        args.workload.name(),
        min_rows.map_or("null".to_string(), |r| r.to_string()),
        args.seed,
        args.budget().unwrap_or(0),
        monet::store::VERSION,
        if args.workload == Workload::Serve { SERVE_CLIENTS } else { 1 },
        args.seconds,
        args.trace,
        args.smoke,
    )
}

/// The pinned statements in order; the store workload permutes them by
/// the seed (Fisher–Yates).
fn pinned_stmts(args: &Args, params: &Params) -> Vec<Stmt> {
    let mut order: Vec<usize> = (0..15).collect();
    if args.workload == Workload::Store {
        let mut rng = StdRng::seed_from_u64(args.seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
    }
    order.into_iter().map(|qi| Stmt::pinned(qi, params)).collect()
}

/// Set up the workload's catalog `args.setups()` times, recording each
/// set-up time, and load the reference results the store carries.
fn setup(args: &Args, oracle: &mut Oracle, times: &mut Vec<f64>) -> Result<World, String> {
    let sf = args.sf();
    if args.workload != Workload::Store {
        let mut world = setup_memory(sf, args.seed, args.setups(), times);
        if args.trace {
            (world.open_ms, world.mapped_bytes) = store_round_trip(&world.cat, sf, &args.work_dir)?;
        }
        return Ok(world);
    }
    // Generate + load timings for the traced run; the store itself was
    // generated once, when it was built.
    let load = args.trace.then(|| {
        let t = Instant::now();
        let data = tpcd::generate(sf, STORE_DATA_SEED);
        let gen_s = t.elapsed().as_secs_f64();
        (gen_s, tpcd::load_bats(&data).1)
    });
    let prepared = ensure_store(&args.work_dir, sf, STORE_DATA_SEED)?;
    for (key, rows) in prepared.expected {
        oracle.insert(key, rows);
    }
    let mut world = open_store(&prepared.dir, args.setups(), times)?;
    world.load = load;
    Ok(world)
}

/// What the traced replay produced.
#[derive(Default)]
struct Replay {
    layers: Layers,
    /// Untraced time of the same statements, seconds.
    untraced_s: f64,
    passes: f64,
    /// The replayed statements, and their results (untraced ones too).
    stmts: Vec<Stmt>,
    results: Vec<(String, Result<QueryResult, String>)>,
}

/// Replay statements through the layer chain: two passes (power), one
/// (store), or the first statements of session 0's stream (serve), which
/// also run untraced in one session as the overhead reference.
fn replay(args: &Args, world: &World, server: &Server, rec: &Records, pinned: &[Stmt]) -> Replay {
    let queries = all_queries();
    let mut out = Replay::default();
    out.stmts = if args.workload == Workload::Serve {
        let mut gen = ParamGen::new(args.seed, 0, world.params.clone(), world.clerks);
        let n = if args.smoke { 15 } else { SERVE_TRACED_STMTS };
        let list: Vec<Stmt> = (0..n).map(|_| gen.next_stmt()).collect();
        let s = session(server, None);
        let mut r = Records::new();
        out.untraced_s = list.iter().map(|st| r.run(&s, &queries, st, true)).sum();
        out.results = r.results;
        list
    } else {
        let passes = if args.workload == Workload::Store || args.smoke { 1 } else { 2 };
        out.untraced_s = median(&rec.passes) * passes as f64;
        pinned.iter().cycle().take(15 * passes).cloned().collect()
    };
    out.passes = out.stmts.len() as f64 / 15.0;
    for st in &out.stmts {
        let r = out.layers.run(&world.cat, &queries[st.qi], &st.params, args.budget());
        out.results.push((st.key.clone(), r.map_err(|e| e.to_string())));
    }
    out
}

fn end_to_end(m: &mut Metrics, args: &Args, world: &World, rec: &Records, setup_times: &[f64]) {
    let med_ms: Vec<f64> = rec.by_query.iter().map(|v| median(v) * 1e3).collect();
    let all_ms: Vec<f64> = rec.all.iter().map(|s| s * 1e3).collect();
    let stream_s = if args.workload == Workload::Serve {
        med_ms.iter().sum::<f64>() / 1e3
    } else {
        median(&rec.passes)
    };
    m.put("setup_s", median(setup_times), "s");
    m.put("stream_s", stream_s, "s");
    m.put("geomean_ms", geomean(&med_ms), "ms");
    m.put("qps", rec.all.len() as f64 / rec.window_s.max(1e-9), "1/s");
    m.put("latency_p50_ms", quantile(&all_ms, 0.5), "ms");
    m.put("latency_p90_ms", quantile(&all_ms, 0.9), "ms");
    m.put("peak_mb", rec.peak as f64 / MIB, "MiB");
    m.put("data_mb", world.data_bytes as f64 / MIB, "MiB");
}

fn per_layer(
    m: &mut Metrics,
    world: &World,
    server: &Server,
    rec: &Records,
    replay: &Replay,
) -> Result<(), String> {
    let (gen_s, report) = world.load.as_ref().ok_or("traced run without load timings")?;
    m.put("tpcd.generate_s", *gen_s, "s");
    m.put("tpcd.load.bulk_ms", report.bulk_ms, "ms");
    m.put("tpcd.load.accel_ms", report.accel_ms, "ms");
    m.put("tpcd.load.reorder_ms", report.reorder_ms, "ms");
    m.put("tpcd.open_ms", median(&world.open_ms), "ms");
    m.put("tpcd.mapped_mb", world.mapped_bytes as f64 / MIB, "MiB");

    let st = server.stats();
    let cache = st.cache.unwrap_or_default();
    let lookups = cache.hits + cache.misses + cache.bypasses;
    let all_ms: Vec<f64> = rec.all.iter().map(|s| s * 1e3).collect();
    m.put("server.cache.hits", cache.hits as f64, "count");
    m.put("server.cache.misses", cache.misses as f64, "count");
    m.put("server.cache.bypasses", cache.bypasses as f64, "count");
    m.put("server.cache.evictions", cache.evictions as f64, "count");
    m.put("server.cache.hit_ratio", cache.hits as f64 / lookups.max(1) as f64, "1");
    m.put("server.waited", st.waited as f64, "count");
    m.put("server.failed", st.failed as f64, "count");
    m.put("server.latency_p99_ms", quantile(&all_ms, 0.99), "ms");
    m.put("server.repeat_share", rec.repeat_share(), "1");

    replay.layers.emit(m);
    for (i, v) in rec.by_query.iter().enumerate() {
        let best = if v.is_empty() { 0.0 } else { min(v) * 1e3 };
        m.put(format!("q{:02}.min_ms", i + 1), best, "ms");
    }
    for (i, v) in rec.by_query.iter().enumerate() {
        m.put(format!("q{:02}.median_ms", i + 1), median(v) * 1e3, "ms");
    }
    let passes = replay.passes.max(1e-9);
    let layers = &replay.layers;
    m.put("trace.overhead_s", (layers.wall_s - replay.untraced_s) / passes, "s");
    m.put("trace.unaccounted_s", (layers.wall_s - layers.accounted_s()) / passes, "s");
    let unlisted = layers.unlisted_algos();
    if !unlisted.is_empty() {
        eprintln!("perfbench: algorithms without a line of their own: {unlisted:?}");
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let config = config_line(args, args.sf());
    let queries = all_queries();
    let mut oracle = Oracle::new(args.corrupt_oracle);
    let mut setup_times = Vec::new();
    let mut world = setup(args, &mut oracle, &mut setup_times)?;

    let server = Server::with_config(&world.cat, ServerConfig::default());
    let pinned = pinned_stmts(args, &world.params);
    let mut stmts = pinned.clone();
    // The power workload computes its reference results before the window
    // and drops the row store; the serving workload keeps its (small) row
    // store and resolves the drawn statements after the window.
    if args.workload == Workload::Power {
        if let Some(rel) = world.rel.take() {
            for s in &pinned {
                oracle.expect(&rel, &queries, s);
            }
        }
    }

    let rec = match args.workload {
        Workload::Serve => {
            let (rec, drawn) = run_serve(&server, &world, args.seed, args.seconds);
            stmts.extend(drawn.into_values());
            rec
        }
        // The traced run keeps its untraced window short: the minimum
        // passes (one at SF 1).
        _ if args.trace => {
            let passes = if args.workload == Workload::Store { 1 } else { args.min_passes() };
            run_passes(&server, &pinned, args.budget(), 0.0, passes)
        }
        _ => run_passes(&server, &pinned, args.budget(), args.seconds, args.min_passes()),
    };
    let replayed = args.trace.then(|| replay(args, &world, &server, &rec, &pinned));

    // Oracle gate, outside every timed region.
    let mut results: Vec<_> = rec.results.iter().collect();
    if let Some(r) = &replayed {
        stmts.extend(r.stmts.iter().cloned());
        results.extend(&r.results);
    }
    if let Some(rel) = &world.rel {
        for s in &stmts {
            oracle.expect(rel, &queries, s);
        }
    }
    let mut verdict = Verdict::default();
    for (key, got) in results {
        verdict.record(oracle.check(key, got));
    }

    if !rec.passes.is_empty() {
        eprintln!("perfbench: timed passes (s): {:?}", rec.passes);
    }
    let per_query: Vec<String> = rec
        .by_query
        .iter()
        .enumerate()
        .map(|(i, v)| format!("Q{}={:.1}", i + 1, median(v) * 1e3))
        .collect();
    eprintln!("perfbench: median ms per query: {}", per_query.join(" "));

    let mut metrics = Metrics::default();
    match &replayed {
        None => end_to_end(&mut metrics, args, &world, &rec, &setup_times),
        Some(r) => per_layer(&mut metrics, &world, &server, &rec, r)?,
    }
    Ok(Outcome { config, verdict, metrics })
}

/// Write the loaded catalog to a scratch store and open it, so the
/// in-memory workloads report the open path at their own scale factor.
/// Returns the open time in ms and the mapped bytes.
fn store_round_trip(cat: &Catalog, sf: f64, work: &Path) -> Result<(Vec<f64>, u64), String> {
    let dir = work.join(format!("trace-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    tpcd::save_catalog(&dir, cat, sf).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let opened = tpcd::open_catalog(&dir, None, &OpenOptions::default());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let opened = opened.map_err(|e| e.to_string());
    let _ = std::fs::remove_dir_all(&dir);
    Ok((vec![ms], opened?.mapped_bytes))
}
