//! MIL interpreter.
//!
//! Executes a straight-line MIL program against a catalog of persistent
//! BATs. Each statement's elapsed time, page faults and dynamically chosen
//! algorithm are captured as a [`StmtTrace`] — the raw material of the
//! paper's Figure 10. Intermediates are freed at their last use, and the
//! live-set high-water mark feeds the "max (MB)" column of Figure 9.

use std::time::Instant;

use crate::atom::AtomValue;
use crate::bat::Bat;
use crate::ctx::ExecCtx;
use crate::db::Db;
use crate::error::{MonetError, Result};
use crate::ops;

use super::ast::{MilArg, MilOp, MilProgram, Var};

/// A MIL variable's value: a BAT or a scalar.
#[derive(Debug, Clone)]
pub enum MilValue {
    Bat(Bat),
    Scalar(AtomValue),
}

impl MilValue {
    pub fn as_bat(&self) -> Result<&Bat> {
        match self {
            MilValue::Bat(b) => Ok(b),
            MilValue::Scalar(v) => Err(MonetError::KindMismatch {
                op: "mil",
                detail: format!("expected a BAT, found scalar {v}"),
            }),
        }
    }

    pub fn as_scalar(&self) -> Result<&AtomValue> {
        match self {
            MilValue::Scalar(v) => Ok(v),
            MilValue::Bat(_) => Err(MonetError::KindMismatch {
                op: "mil",
                detail: "expected a scalar, found a BAT".into(),
            }),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            MilValue::Bat(b) => b.bytes(),
            MilValue::Scalar(_) => 0,
        }
    }
}

/// Per-statement execution record (one row of Figure 10). Rows always
/// describe the program the interpreter actually ran — after plan
/// optimization, `var`/`name`/`rendered` reference the *rewritten*
/// statements, not the translator's raw emission.
#[derive(Debug, Clone)]
pub struct StmtTrace {
    /// Variable the statement defines (its index in the executed program).
    pub var: Var,
    pub name: String,
    pub rendered: String,
    pub ms: f64,
    pub faults: u64,
    pub algo: &'static str,
    /// Whether the implementation was pinned by the plan optimizer
    /// (skipping run-time property re-derivation).
    pub pinned: bool,
    pub result_len: usize,
    pub result_bytes: usize,
}

/// The interpreter environment after execution.
pub struct Env {
    values: Vec<Option<MilValue>>,
    trace: Vec<StmtTrace>,
}

impl Env {
    /// Value of a variable; freed intermediates are not retrievable, so
    /// callers keep the variables of interest alive by referencing them in
    /// later statements or reading them right after execution (the
    /// interpreter never frees the final statement's result or any result
    /// variable listed in `keep`).
    pub fn get(&self, v: Var) -> Result<&MilValue> {
        self.values
            .get(v)
            .and_then(|x| x.as_ref())
            .ok_or_else(|| MonetError::UnknownName(format!("mil var {v} (freed or unset)")))
    }

    pub fn bat(&self, v: Var) -> Result<&Bat> {
        self.get(v)?.as_bat()
    }

    pub fn scalar(&self, v: Var) -> Result<&AtomValue> {
        self.get(v)?.as_scalar()
    }

    /// Per-statement trace, in program order.
    pub fn trace(&self) -> &[StmtTrace] {
        &self.trace
    }
}

/// Execute `prog` against `db`. Variables in `keep` (typically the result
/// BATs of the query's structure expression) survive liveness-based
/// freeing.
pub fn execute(ctx: &ExecCtx, db: &Db, prog: &MilProgram, keep: &[Var]) -> Result<Env> {
    // Open a fresh governor charge window: the byte budget covers the
    // intermediates of *this* program, not whatever ran before on the ctx.
    ctx.mem.begin();
    let frees = prog.last_uses();
    let mut values: Vec<Option<MilValue>> = vec![None; prog.stmts.len()];
    let mut trace: Vec<StmtTrace> = Vec::with_capacity(prog.stmts.len());
    let mut live_bytes: u64 = db.bytes() as u64;
    let mut peak = live_bytes;
    // Governor charge attributed to each variable (released when liveness
    // frees it). Load/ConstScalar/Mirror share persistent or operand
    // storage and were never charged by a kernel `record`, so they stay 0.
    let mut charged: Vec<u64> = vec![0; prog.stmts.len()];
    let last = prog.stmts.len().saturating_sub(1);

    for (i, stmt) in prog.stmts.iter().enumerate() {
        ctx.probe(crate::gov::site::MIL_STMT)?;
        let started = Instant::now();
        let faults0 = ctx.faults();
        let events_before = ctx.trace.as_ref().map_or(0, |t| t.lock().len());
        let value = eval_stmt(ctx, db, &values, stmt)?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let faults = ctx.faults().saturating_sub(faults0);
        // The kernel op recorded its own TraceEvent (with the chosen
        // algorithm) if tracing is on; pull the algo label from it — but
        // only when this statement actually emitted one (load/mirror/const
        // do not).
        let algo = match &ctx.trace {
            Some(t) => {
                let g = t.lock();
                if g.len() > events_before {
                    g.last().map(|e| e.algo).unwrap_or("")
                } else {
                    ""
                }
            }
            None => "",
        };
        live_bytes += value.bytes() as u64;
        charged[stmt.var] = match &stmt.op {
            MilOp::Load(_) | MilOp::ConstScalar(_) | MilOp::Mirror(_) => 0,
            _ => value.bytes() as u64,
        };
        trace.push(StmtTrace {
            var: stmt.var,
            name: stmt.name.clone(),
            rendered: super::print::render_stmt(prog, stmt),
            ms,
            faults,
            algo,
            pinned: stmt.pin.is_some(),
            result_len: match &value {
                MilValue::Bat(b) => b.len(),
                MilValue::Scalar(_) => 1,
            },
            result_bytes: value.bytes(),
        });
        values[stmt.var] = Some(value);
        peak = peak.max(live_bytes);
        // Free dead intermediates ("algebraic buffer management").
        for &v in &frees[i] {
            if keep.contains(&v) || v == last {
                continue;
            }
            if let Some(val) = values[v].take() {
                live_bytes = live_bytes.saturating_sub(val.bytes() as u64);
                ctx.mem.release(charged[v]);
                charged[v] = 0;
            }
        }
    }
    ctx.mem.observe_live(peak);
    Ok(Env { values, trace })
}

/// Execute one statement: when the plan optimizer pinned an algorithm,
/// dispatch straight to the pinned kernel entry point (skipping the
/// operator's property re-derivation — pins are only attached when the
/// dynamic choice is provably the same); otherwise fall through to the
/// dynamically dispatching [`eval_op`].
fn eval_stmt(
    ctx: &ExecCtx,
    db: &Db,
    env: &[Option<MilValue>],
    stmt: &super::ast::MilStmt,
) -> Result<MilValue> {
    let bat = |v: Var| -> Result<&Bat> {
        env.get(v)
            .and_then(|x| x.as_ref())
            .ok_or_else(|| MonetError::UnknownName(format!("mil var {v}")))?
            .as_bat()
    };
    match (stmt.pin, &stmt.op) {
        (Some(super::ast::Pin::SelectSorted), MilOp::SelectEq(v, val)) => {
            Ok(MilValue::Bat(ops::select::select_eq_sorted(ctx, bat(*v)?, val)?))
        }
        (
            Some(super::ast::Pin::SelectSorted),
            MilOp::SelectRange { src, lo, hi, inc_lo, inc_hi },
        ) => Ok(MilValue::Bat(ops::select::select_range_sorted(
            ctx,
            bat(*src)?,
            lo.as_ref(),
            hi.as_ref(),
            *inc_lo,
            *inc_hi,
        )?)),
        (Some(super::ast::Pin::SelectDictCode), MilOp::SelectEq(v, val)) => {
            Ok(MilValue::Bat(ops::select::select_eq_dict(ctx, bat(*v)?, val)?))
        }
        (
            Some(super::ast::Pin::SelectDictCode),
            MilOp::SelectRange { src, lo, hi, inc_lo, inc_hi },
        ) => Ok(MilValue::Bat(ops::select::select_range_dict(
            ctx,
            bat(*src)?,
            lo.as_ref(),
            hi.as_ref(),
            *inc_lo,
            *inc_hi,
        )?)),
        (Some(super::ast::Pin::JoinFetch), MilOp::Join(a, b)) => {
            Ok(MilValue::Bat(ops::join::join_fetch_pinned(ctx, bat(*a)?, bat(*b)?)?))
        }
        (Some(super::ast::Pin::JoinMerge), MilOp::Join(a, b)) => {
            Ok(MilValue::Bat(ops::join::join_merge_pinned(ctx, bat(*a)?, bat(*b)?)?))
        }
        // A pin that does not fit the operation shape is a planner bug in
        // debug builds; release builds just take the dynamic path.
        (Some(p), op) => {
            debug_assert!(false, "pin {p:?} does not match op {}", op.name());
            eval_op(ctx, db, env, op)
        }
        (None, op) => eval_op(ctx, db, env, op),
    }
}

fn eval_op(ctx: &ExecCtx, db: &Db, env: &[Option<MilValue>], op: &MilOp) -> Result<MilValue> {
    let bat = |v: Var| -> Result<&Bat> {
        env.get(v)
            .and_then(|x| x.as_ref())
            .ok_or_else(|| MonetError::UnknownName(format!("mil var {v}")))?
            .as_bat()
    };
    Ok(match op {
        MilOp::Load(name) => MilValue::Bat(db.get(name)?.clone()),
        MilOp::ConstScalar(v) => MilValue::Scalar(v.clone()),
        MilOp::Mirror(v) => MilValue::Bat(bat(*v)?.mirror()),
        MilOp::SelectEq(v, val) => MilValue::Bat(ops::select_eq(ctx, bat(*v)?, val)?),
        MilOp::SelectRange { src, lo, hi, inc_lo, inc_hi } => MilValue::Bat(ops::select_range(
            ctx,
            bat(*src)?,
            lo.as_ref(),
            hi.as_ref(),
            *inc_lo,
            *inc_hi,
        )?),
        MilOp::Join(a, b) => MilValue::Bat(ops::join(ctx, bat(*a)?, bat(*b)?)?),
        MilOp::Semijoin(a, b) => MilValue::Bat(ops::semijoin(ctx, bat(*a)?, bat(*b)?)?),
        MilOp::Antijoin(a, b) => MilValue::Bat(ops::antijoin(ctx, bat(*a)?, bat(*b)?)?),
        MilOp::Unique(v) => MilValue::Bat(ops::unique(ctx, bat(*v)?)?),
        MilOp::Group1(v) => MilValue::Bat(ops::group1(ctx, bat(*v)?)?),
        MilOp::Group2(a, b) => MilValue::Bat(ops::group2(ctx, bat(*a)?, bat(*b)?)?),
        MilOp::Multiplex { f, args } => {
            let mut margs = Vec::with_capacity(args.len());
            for a in args {
                margs.push(match a {
                    MilArg::Var(v) => match env
                        .get(*v)
                        .and_then(|x| x.as_ref())
                        .ok_or_else(|| MonetError::UnknownName(format!("mil var {v}")))?
                    {
                        MilValue::Bat(b) => ops::MultArg::Bat(b.clone()),
                        MilValue::Scalar(s) => ops::MultArg::Const(s.clone()),
                    },
                    MilArg::Const(v) => ops::MultArg::Const(v.clone()),
                });
            }
            MilValue::Bat(ops::multiplex(ctx, *f, &margs)?)
        }
        MilOp::SetAgg { f, src } => MilValue::Bat(ops::set_aggregate(ctx, *f, bat(*src)?)?),
        MilOp::AggrScalar { f, src } => MilValue::Scalar(ops::aggr_scalar(ctx, bat(*src)?, *f)?),
        MilOp::Union(a, b) => MilValue::Bat(ops::union_pairs(ctx, bat(*a)?, bat(*b)?)?),
        MilOp::Diff(a, b) => MilValue::Bat(ops::diff_pairs(ctx, bat(*a)?, bat(*b)?)?),
        MilOp::Intersect(a, b) => MilValue::Bat(ops::intersect_pairs(ctx, bat(*a)?, bat(*b)?)?),
        MilOp::Concat(a, b) => MilValue::Bat(ops::concat_bats(ctx, bat(*a)?, bat(*b)?)?),
        MilOp::Zip(a, b) => MilValue::Bat(ops::zip(ctx, bat(*a)?, bat(*b)?)?),
        MilOp::SortTail(v) => MilValue::Bat(ops::sort_tail(ctx, bat(*v)?)?),
        MilOp::SortHead(v) => MilValue::Bat(ops::sort_head(ctx, bat(*v)?)?),
        MilOp::TopN { src, n, desc } => MilValue::Bat(ops::topn(ctx, bat(*src)?, *n, *desc)?),
        MilOp::Mark(v) => MilValue::Bat(ops::mark(ctx, bat(*v)?, None)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn db() -> Db {
        let mut db = Db::new();
        db.register(
            "Order_clerk",
            Bat::with_inferred_props(
                Column::from_oids(vec![4, 2, 7, 1]),
                Column::from_strs(["a", "b", "b", "c"]),
            ),
        );
        db.register(
            "Item_order",
            Bat::new(Column::from_oids(vec![100, 101, 102]), Column::from_oids(vec![2, 7, 1])),
        );
        db
    }

    #[test]
    fn runs_a_small_pipeline() {
        let ctx = ExecCtx::new();
        let db = db();
        let mut p = MilProgram::new();
        let clerk = p.emit("clerk", MilOp::Load("Order_clerk".into()));
        let orders = p.emit("orders", MilOp::SelectEq(clerk, AtomValue::str("b")));
        let io = p.emit("io", MilOp::Load("Item_order".into()));
        let items = p.emit("items", MilOp::Join(io, orders));
        let env = execute(&ctx, &db, &p, &[items]).unwrap();
        let result = env.bat(items).unwrap();
        assert_eq!(result.len(), 2);
        let mut heads: Vec<u64> = (0..2).map(|i| result.head().oid_at(i)).collect();
        heads.sort_unstable();
        assert_eq!(heads, vec![100, 101]);
    }

    #[test]
    fn freed_intermediates_are_unavailable() {
        let ctx = ExecCtx::new();
        let db = db();
        let mut p = MilProgram::new();
        let clerk = p.emit("clerk", MilOp::Load("Order_clerk".into()));
        let m = p.emit("m", MilOp::Mirror(clerk));
        let u = p.emit("u", MilOp::Unique(m));
        let env = execute(&ctx, &db, &p, &[u]).unwrap();
        assert!(env.bat(u).is_ok());
        assert!(env.bat(clerk).is_err()); // freed after its last use
    }

    #[test]
    fn keep_protects_variables() {
        let ctx = ExecCtx::new();
        let db = db();
        let mut p = MilProgram::new();
        let clerk = p.emit("clerk", MilOp::Load("Order_clerk".into()));
        let m = p.emit("m", MilOp::Mirror(clerk));
        let _u = p.emit("u", MilOp::Unique(m));
        let env = execute(&ctx, &db, &p, &[clerk, m]).unwrap();
        assert!(env.bat(clerk).is_ok());
        assert!(env.bat(m).is_ok());
    }

    #[test]
    fn scalar_aggregate_statement() {
        let ctx = ExecCtx::new();
        let mut db = Db::new();
        db.register("nums", Bat::new(Column::from_oids(vec![1, 2]), Column::from_ints(vec![4, 6])));
        let mut p = MilProgram::new();
        let v = p.emit("nums", MilOp::Load("nums".into()));
        let s = p.emit("total", MilOp::AggrScalar { f: ops::AggFunc::Sum, src: v });
        let env = execute(&ctx, &db, &p, &[s]).unwrap();
        assert_eq!(env.scalar(s).unwrap(), &AtomValue::Lng(10));
    }

    #[test]
    fn unknown_catalog_name_errors() {
        let ctx = ExecCtx::new();
        let db = Db::new();
        let mut p = MilProgram::new();
        let _ = p.emit("x", MilOp::Load("nope".into()));
        assert!(execute(&ctx, &db, &p, &[]).is_err());
    }

    #[test]
    fn budget_abort_is_typed_and_a_lifted_budget_recovers() {
        let ctx = ExecCtx::new();
        let db = db();
        let mut p = MilProgram::new();
        let clerk = p.emit("clerk", MilOp::Load("Order_clerk".into()));
        let orders = p.emit("orders", MilOp::SelectEq(clerk, AtomValue::str("b")));
        let io = p.emit("io", MilOp::Load("Item_order".into()));
        let items = p.emit("items", MilOp::Join(io, orders));
        ctx.mem.set_budget(Some(1));
        let err = match execute(&ctx, &db, &p, &[items]) {
            Err(e) => e,
            Ok(_) => panic!("over-budget program completed"),
        };
        assert!(matches!(err, MonetError::BudgetExceeded { .. }), "got {err:?}");
        // The budget aborts the query, not the context: lift it and retry.
        ctx.mem.set_budget(None);
        assert_eq!(execute(&ctx, &db, &p, &[items]).unwrap().bat(items).unwrap().len(), 2);
    }

    #[test]
    fn cancellation_aborts_between_statements() {
        let ctx = ExecCtx::new();
        let db = db();
        let mut p = MilProgram::new();
        let _ = p.emit("clerk", MilOp::Load("Order_clerk".into()));
        let token = ctx.cancel_token();
        token.cancel();
        let err = match execute(&ctx, &db, &p, &[]) {
            Err(e) => e,
            Ok(_) => panic!("cancelled program completed"),
        };
        assert_eq!(err, MonetError::Cancelled);
        token.clear();
        assert!(execute(&ctx, &db, &p, &[]).is_ok());
    }

    #[test]
    fn liveness_frees_release_governor_charge() {
        let ctx = ExecCtx::new();
        let db = db();
        let mut p = MilProgram::new();
        let clerk = p.emit("clerk", MilOp::Load("Order_clerk".into()));
        let orders = p.emit("orders", MilOp::SelectEq(clerk, AtomValue::str("b")));
        let io = p.emit("io", MilOp::Load("Item_order".into()));
        let items = p.emit("items", MilOp::Join(io, orders));
        let env = execute(&ctx, &db, &p, &[items]).unwrap();
        // `orders` was charged by the select's record and released at its
        // liveness free; only the kept join result stays charged.
        let kept = env.bat(items).unwrap().bytes() as u64;
        assert_eq!(ctx.mem.charged_bytes(), kept);
        assert!(ctx.mem.charged_peak() > kept);
    }

    #[test]
    fn trace_captures_statements() {
        let ctx = ExecCtx::new().with_trace();
        let db = db();
        let mut p = MilProgram::new();
        let clerk = p.emit("clerk", MilOp::Load("Order_clerk".into()));
        let _sel = p.emit("orders", MilOp::SelectEq(clerk, AtomValue::str("b")));
        let env = execute(&ctx, &db, &p, &[]).unwrap();
        assert_eq!(env.trace().len(), 2);
        assert_eq!(env.trace()[1].name, "orders");
        assert_eq!(env.trace()[1].algo, "binary-search");
        assert_eq!(env.trace()[1].result_len, 2);
    }
}
