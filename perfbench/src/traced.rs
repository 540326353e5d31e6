//! The traced run: each statement goes through the layers' public entry
//! points one at a time, with a span around each call.
//!
//! Single-program queries run the chain `translate_with(Off)` (MOA → MIL)
//! → `mil::opt::optimize` (on a copy of the raw program) →
//! `translate_with(Full)` (the plan that runs) → `mil::execute` with a
//! tracing `ExecCtx` → `Translated::build` + `materialize` + row
//! flattening. The multi-program drivers (Q6, Q8, Q11, Q14) combine
//! several programs in client code, so they run whole under a tracing
//! `ExecCtx` and their kernels show up in the `ops` lines only.
//!
//! The second translation is not attributed to any layer: it is part of
//! the tracing overhead, which the traced run reports as traced minus
//! untraced time over the same statements.

use std::collections::BTreeMap;
use std::time::Instant;

use moa::catalog::Catalog;
use moa::error::{MoaError, Result};
use moa::prelude::SetExpr;
use moa::translate::translate_with;
use moa::value::Value;
use monet::atom::AtomValue;
use monet::ctx::ExecCtx;
use monet::mil::opt::OptLevel;
use tpcd_queries::{q01_05, q06_10, q11_15, Params, Query, QueryResult};

use crate::stats::{Metrics, MIB};

/// The MOA expression of a single-program query, `None` for the
/// multi-program drivers.
fn single_program(id: usize) -> Option<fn(&Params) -> SetExpr> {
    Some(match id {
        1 => q01_05::q1_moa,
        2 => q01_05::q2_moa,
        3 => q01_05::q3_moa,
        4 => q01_05::q4_moa,
        5 => q01_05::q5_moa,
        7 => q06_10::q7_moa,
        9 => q06_10::q9_moa,
        10 => q06_10::q10_moa,
        12 => q11_15::q12_moa,
        13 => q11_15::q13_moa,
        15 => q11_15::q15_moa,
        _ => return None,
    })
}

/// The kernel operators reported as `ops.<op>.*`; every other trace
/// event (sort, set operations, mark, zip, ...) counts as `ops.other`.
pub const OPS: [&str; 9] =
    ["select", "semijoin", "join", "group", "aggregate", "multiplex", "unique", "topn", "fused"];

/// `(op, algo)` pairs reported as `ops.<op>.<algo>.ms`: the algorithms
/// both in-memory workloads choose. The others (partitioned and spilling
/// joins, parallel and spilling grouping) stay inside `ops.join.ms` /
/// `ops.group.ms`; a run that uses one lists it on stderr.
pub const ALGOS: [(&str, &str); 12] = [
    ("join", "fetch"),
    ("join", "merge"),
    ("join", "hash"),
    ("semijoin", "sync"),
    ("semijoin", "merge"),
    ("semijoin", "datavector"),
    ("semijoin", "hash"),
    ("group", "hash"),
    ("group", "merge"),
    ("group", "sync"),
    ("group", "code-group"),
    ("group", "hash-align"),
];

fn op_name(op: &str) -> &str {
    match op {
        "set-aggregate" => "aggregate",
        o if OPS.contains(&o) => o,
        _ => "other",
    }
}

#[derive(Default, Clone, Copy)]
struct OpAcc {
    ms: f64,
    calls: u64,
    rows: u64,
}

/// Per-layer totals over the traced statements.
#[derive(Default)]
pub struct Layers {
    statements: u64,
    /// Wall time of the traced statements, seconds.
    pub wall_s: f64,
    translate_s: f64,
    opt_s: f64,
    execute_s: f64,
    stmt_sum_s: f64,
    materialize_s: f64,
    multi_s: f64,
    stmts_raw: u64,
    stmts_before: u64,
    stmts_after: u64,
    pins: u64,
    rounds: u64,
    programs: u64,
    stmts_executed: u64,
    total_bytes: u64,
    spilled_bytes: u64,
    peak_by_query: [u64; 15],
    ops: BTreeMap<String, OpAcc>,
    algos: BTreeMap<(String, String), f64>,
}

fn flatten(v: Value) -> Result<Vec<AtomValue>> {
    match v {
        Value::Tuple(fields) => fields
            .into_iter()
            .map(|f| match f {
                Value::Atom(a) => Ok(a),
                Value::Ref(o) => Ok(AtomValue::Oid(o)),
                other => Err(MoaError::Type(format!("cannot flatten {other} into a row"))),
            })
            .collect(),
        Value::Atom(a) => Ok(vec![a]),
        Value::Ref(o) => Ok(vec![AtomValue::Oid(o)]),
        other => Err(MoaError::Type(format!("cannot flatten {other} into a row"))),
    }
}

impl Layers {
    /// Run one statement traced, adding its spans to the totals.
    pub fn run(
        &mut self,
        cat: &Catalog,
        q: &Query,
        params: &Params,
        budget: Option<u64>,
    ) -> Result<QueryResult> {
        let ctx = ExecCtx::new().with_trace();
        if budget.is_some() {
            ctx.mem.set_budget(budget);
        }
        let started = Instant::now();
        let out = match single_program(q.id) {
            Some(build) => self.chain(cat, &ctx, &build(params)),
            None => {
                let r = (q.run_moa)(cat, &ctx, params);
                self.multi_s += started.elapsed().as_secs_f64();
                r
            }
        };
        self.wall_s += started.elapsed().as_secs_f64();
        self.statements += 1;
        for ev in ctx.take_trace() {
            let op = op_name(ev.op);
            let acc = self.ops.entry(op.to_string()).or_default();
            acc.ms += ev.ms;
            acc.calls += 1;
            acc.rows += ev.result_len as u64;
            *self.algos.entry((op.to_string(), ev.algo.to_string())).or_default() += ev.ms;
        }
        self.total_bytes += ctx.mem.total_bytes();
        self.spilled_bytes += ctx.mem.spilled_bytes();
        let peak = &mut self.peak_by_query[q.id - 1];
        *peak = (*peak).max(ctx.mem.charged_peak());
        out
    }

    fn chain(&mut self, cat: &Catalog, ctx: &ExecCtx, expr: &SetExpr) -> Result<QueryResult> {
        let t = Instant::now();
        let raw = translate_with(cat, expr, OptLevel::Off)?;
        self.translate_s += t.elapsed().as_secs_f64();
        self.stmts_raw += raw.prog.stmts.len() as u64;

        let prog = raw.prog.clone();
        let t = Instant::now();
        let opt = monet::mil::opt::optimize(prog, &raw.keep, cat.db());
        self.opt_s += t.elapsed().as_secs_f64();
        self.stmts_before += opt.report.stmts_before as u64;
        self.stmts_after += opt.report.stmts_after as u64;
        self.pins += opt.report.pins as u64;
        self.rounds += opt.report.rounds as u64;
        self.programs += 1;

        let plan = translate_with(cat, expr, OptLevel::Full)?;

        let t = Instant::now();
        let env = monet::mil::execute(ctx, cat.db(), &plan.prog, &plan.keep)?;
        self.execute_s += t.elapsed().as_secs_f64();
        self.stmt_sum_s += env.trace().iter().map(|s| s.ms).sum::<f64>() / 1e3;
        self.stmts_executed += env.trace().len() as u64;

        let t = Instant::now();
        let rows = plan
            .build(&env)?
            .materialize()?
            .into_iter()
            .map(flatten)
            .collect::<Result<Vec<_>>>()?;
        self.materialize_s += t.elapsed().as_secs_f64();
        Ok(QueryResult(rows))
    }

    /// Seconds of the traced wall time the layer spans cover.
    pub fn accounted_s(&self) -> f64 {
        self.translate_s + self.opt_s + self.execute_s + self.materialize_s + self.multi_s
    }

    /// Emit the `moa`, `mil`, `ops` and `mem` lines. Times, counts and
    /// bytes are per pass: totals divided by (traced statements / 15).
    pub fn emit(&self, m: &mut Metrics) {
        let passes = (self.statements as f64 / 15.0).max(1e-9);
        let per = |v: f64| v / passes;
        let ms = |s: f64| per(s * 1e3);
        m.put("moa.translate_ms", ms(self.translate_s), "ms");
        m.put("moa.stmts_raw", per(self.stmts_raw as f64), "count");
        m.put("moa.materialize_ms", ms(self.materialize_s), "ms");
        m.put("moa.multi_ms", ms(self.multi_s), "ms");
        m.put("mil.opt_ms", ms(self.opt_s), "ms");
        m.put("mil.opt.stmts_after", per(self.stmts_after as f64), "count");
        let reduction = if self.stmts_before == 0 {
            0.0
        } else {
            1.0 - self.stmts_after as f64 / self.stmts_before as f64
        };
        m.put("mil.opt.reduction", reduction, "1");
        m.put("mil.opt.pins", per(self.pins as f64), "count");
        m.put("mil.opt.rounds", self.rounds as f64 / (self.programs.max(1)) as f64, "count");
        m.put("mil.execute_ms", ms(self.execute_s), "ms");
        m.put("mil.stmts_executed", per(self.stmts_executed as f64), "count");
        m.put("mil.dispatch_ms", ms(self.execute_s - self.stmt_sum_s), "ms");
        for op in OPS.iter().chain(&["other"]) {
            let acc = self.ops.get(*op).copied().unwrap_or_default();
            m.put(format!("ops.{op}.ms"), per(acc.ms), "ms");
            m.put(format!("ops.{op}.calls"), per(acc.calls as f64), "count");
            m.put(format!("ops.{op}.rows_out"), per(acc.rows as f64), "count");
        }
        for (op, algo) in ALGOS {
            let v = self.algos.get(&(op.to_string(), algo.to_string())).copied().unwrap_or(0.0);
            m.put(format!("ops.{op}.{algo}.ms"), per(v), "ms");
        }
        m.put("mem.total_mb", per(self.total_bytes as f64) / MIB, "MiB");
        m.put("mem.spilled_mb", per(self.spilled_bytes as f64) / MIB, "MiB");
        for (i, peak) in self.peak_by_query.iter().enumerate() {
            m.put(format!("mem.peak_mb.q{:02}", i + 1), *peak as f64 / MIB, "MiB");
        }
    }

    /// Trace events whose `(op, algo)` has no line of its own, for the
    /// diagnostic listing on stderr.
    pub fn unlisted_algos(&self) -> Vec<String> {
        self.algos
            .keys()
            .filter(|(op, algo)| {
                ALGOS.iter().any(|(o, _)| o == op) && !ALGOS.contains(&(op.as_str(), algo.as_str()))
            })
            .map(|(op, algo)| format!("{op}.{algo}"))
            .collect()
    }
}
