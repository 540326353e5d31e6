//! Every TPC-D query's MOA-on-Monet result must equal the n-ary reference
//! result — the end-to-end correctness gate of the reproduction.
//!
//! The oracle runs twice: once per query at the benchmark scale (SF 0.01,
//! the `bench` harness seed, one shared world), and once as a sweep over a
//! second, smaller database so agreement is not an artifact of one dataset.

use std::sync::OnceLock;

use bench::{World, SEED};
use monet::ctx::ExecCtx;
use tpcd_queries::{all_queries, Params};

/// The benchmark-scale world, shared by the per-query oracle tests below.
fn bench_world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::build(0.01))
}

/// MOA-on-Monet vs the n-ary reference for one query id (1-based).
fn check_query_agrees(id: usize) {
    let w = bench_world();
    let q = &all_queries()[id - 1];
    assert_eq!(q.id, id);
    let ctx = ExecCtx::new();
    let moa_rows =
        (q.run_moa)(&w.cat, &ctx, &w.params).unwrap_or_else(|e| panic!("Q{id} MOA failed: {e}"));
    let ref_out = (q.run_ref)(&w.rel, &w.params, None);
    assert!(
        moa_rows.approx_eq(&ref_out.rows, 1e-6),
        "Q{id} disagrees at SF 0.01 / seed {SEED} ({}):\nMOA ({} rows):\n{}\nreference ({} rows):\n{}",
        q.comment,
        moa_rows.len(),
        moa_rows.clone().sorted().preview(12),
        ref_out.rows.len(),
        ref_out.rows.clone().sorted().preview(12),
    );
}

macro_rules! oracle_tests {
    ($($name:ident => $id:expr),+ $(,)?) => {$(
        #[test]
        fn $name() {
            check_query_agrees($id);
        }
    )+};
}

oracle_tests! {
    q1_agrees => 1,
    q2_agrees => 2,
    q3_agrees => 3,
    q4_agrees => 4,
    q5_agrees => 5,
    q6_agrees => 6,
    q7_agrees => 7,
    q8_agrees => 8,
    q9_agrees => 9,
    q10_agrees => 10,
    q11_agrees => 11,
    q12_agrees => 12,
    q13_agrees => 13,
    q14_agrees => 14,
    q15_agrees => 15,
}

#[test]
fn all_fifteen_queries_agree_threaded_and_match_serial_exactly() {
    // Q1-Q15 with the morsel executor forced on (4 workers, tiny row
    // threshold, odd morsels small enough that the SF 0.01 operands split
    // into many): every query must produce *bit-identical* rows to its
    // serial run under the same morsel grid, and still agree with the
    // n-ary reference. This is the end-to-end leg of the
    // parallel-vs-serial oracle rule (see tests/par_determinism.rs for
    // the per-kernel leg).
    let w = bench_world();
    for q in all_queries() {
        let ctx = ExecCtx::new();
        let threaded = monet::par::with_par_config(Some(4), Some(1024), Some(4099), || {
            (q.run_moa)(&w.cat, &ctx, &w.params)
        })
        .unwrap_or_else(|e| panic!("Q{} threaded MOA failed: {e}", q.id));
        let serial = monet::par::with_par_config(Some(1), Some(1024), Some(4099), || {
            (q.run_moa)(&w.cat, &ctx, &w.params)
        })
        .unwrap_or_else(|e| panic!("Q{} serial MOA failed: {e}", q.id));
        assert!(
            threaded.approx_eq(&serial, 0.0),
            "Q{} threaded result differs from serial ({}):\nthreaded ({} rows):\n{}\nserial ({} rows):\n{}",
            q.id,
            q.comment,
            threaded.len(),
            threaded.clone().sorted().preview(12),
            serial.len(),
            serial.clone().sorted().preview(12),
        );
        let ref_out = (q.run_ref)(&w.rel, &w.params, None);
        assert!(
            threaded.approx_eq(&ref_out.rows, 1e-6),
            "Q{} threaded disagrees with reference ({})",
            q.id,
            q.comment,
        );
    }
}

#[test]
fn all_fifteen_queries_bit_identical_with_optimizer_on_and_off() {
    // The plan optimizer must be invisible in results: every query,
    // executed from the optimized MIL program, produces rows *bit-equal*
    // (eps 0.0 — float aggregation order preserved) to the raw translator
    // emission (`FLATALG_OPT=0` oracle), serial and threaded.
    use tpcd_queries::runner::{with_opt_level, OptLevel};
    let w = bench_world();
    for q in all_queries() {
        for threads in [1usize, 4] {
            let ctx = ExecCtx::new();
            let run = |level: OptLevel| {
                with_opt_level(level, || {
                    monet::par::with_par_config(Some(threads), Some(1024), Some(4099), || {
                        (q.run_moa)(&w.cat, &ctx, &w.params)
                    })
                })
                .unwrap_or_else(|e| panic!("Q{} ({level:?}, {threads} threads) failed: {e}", q.id))
            };
            let optimized = run(OptLevel::Full);
            let raw = run(OptLevel::Off);
            assert!(
                optimized.approx_eq(&raw, 0.0),
                "Q{} at {threads} threads: optimized plan differs from raw emission ({}):\n\
                 optimized ({} rows):\n{}\nraw ({} rows):\n{}",
                q.id,
                q.comment,
                optimized.len(),
                optimized.clone().sorted().preview(12),
                raw.len(),
                raw.clone().sorted().preview(12),
            );
        }
    }
}

#[test]
fn all_fifteen_queries_bit_identical_encoded_vs_raw_layouts() {
    // Encoded column layouts must be invisible in results: every query,
    // run against the default world (dict/FOR/RLE columns built at load
    // time), produces rows *bit-equal* (eps 0.0) to the same query on a
    // raw-layout world (`FLATALG_ENC=0` oracle), serial and threaded.
    // Both worlds come from the same generator seed, so any divergence is
    // the encoding layer's fault, not the data's.
    use monet::props::Enc;
    // The shared world follows the ambient leg (`FLATALG_ENC`); the second
    // world is built with the *opposite* setting, so this test compares
    // encoded vs raw layouts no matter which CI leg it runs under.
    let ambient = bench_world();
    let flipped = monet::enc::with_enc(!monet::enc::enc_enabled(), || World::build(0.01));
    let enc_of = |w: &World| w.cat.db().get("Order_clerk").unwrap().tail().encoding();
    let (encoded, raw): (&World, &World) =
        if enc_of(ambient) == Enc::Dict { (ambient, &flipped) } else { (&flipped, ambient) };
    // Guard against a vacuous same-vs-same comparison: one side must hold
    // encoded columns, the other must not.
    assert_eq!(enc_of(encoded), Enc::Dict, "one world must dict-encode the clerk column");
    assert_eq!(enc_of(raw), Enc::None, "the other world must stay raw");
    for q in all_queries() {
        for threads in [1usize, 4] {
            let ctx = ExecCtx::new();
            let run = |w: &World| {
                monet::par::with_par_config(Some(threads), Some(1024), Some(4099), || {
                    (q.run_moa)(&w.cat, &ctx, &w.params)
                })
                .unwrap_or_else(|e| panic!("Q{} ({threads} threads) failed: {e}", q.id))
            };
            let enc_rows = run(encoded);
            let raw_rows = run(raw);
            assert!(
                enc_rows.approx_eq(&raw_rows, 0.0),
                "Q{} at {threads} threads: encoded layouts differ from raw layouts ({}):\n\
                 encoded ({} rows):\n{}\nraw ({} rows):\n{}",
                q.id,
                q.comment,
                enc_rows.len(),
                enc_rows.clone().sorted().preview(12),
                raw_rows.len(),
                raw_rows.clone().sorted().preview(12),
            );
        }
    }
}

#[test]
fn optimizer_cuts_executed_statements_by_at_least_15_percent() {
    // The plan-level acceptance number: across all fifteen queries the
    // optimizer's EXPLAIN counters must report >= 15% fewer executed MIL
    // statements than the raw translator emission (straight-line programs
    // execute every statement exactly once).
    use tpcd_queries::runner::{with_opt_level, OptLevel};
    let w = bench_world();
    let ctx = ExecCtx::new();
    with_opt_level(OptLevel::Full, || {
        monet::mil::opt::reset_cumulative();
        for q in all_queries() {
            (q.run_moa)(&w.cat, &ctx, &w.params)
                .unwrap_or_else(|e| panic!("Q{} failed: {e}", q.id));
        }
    });
    let (raw, optimized) = monet::mil::opt::cumulative();
    assert!(raw > 0, "no programs were optimized");
    let reduction = 1.0 - optimized as f64 / raw as f64;
    assert!(
        reduction >= 0.15,
        "optimizer cut executed MIL statements by only {:.1}% ({raw} -> {optimized}) \
         across Q1-Q15; the plan-level acceptance floor is 15%",
        reduction * 100.0,
    );
}

#[test]
fn all_fifteen_queries_agree_on_a_second_database() {
    let data = tpcd::generate(0.002, 20260610);
    let (cat, _report) = tpcd::load_bats(&data);
    let rel = tpcd::load_rowstore(&data);
    let params = Params::for_data(&data);
    let ctx = ExecCtx::new();
    let mut checked = 0;
    for q in all_queries() {
        let moa_rows = (q.run_moa)(&cat, &ctx, &params)
            .unwrap_or_else(|e| panic!("Q{} MOA failed: {e}", q.id));
        let ref_out = (q.run_ref)(&rel, &params, None);
        assert!(
            moa_rows.approx_eq(&ref_out.rows, 1e-6),
            "Q{} disagrees ({}):\nMOA ({} rows):\n{}\nreference ({} rows):\n{}",
            q.id,
            q.comment,
            moa_rows.len(),
            moa_rows.clone().sorted().preview(12),
            ref_out.rows.len(),
            ref_out.rows.clone().sorted().preview(12),
        );
        checked += 1;
    }
    assert_eq!(checked, 15);
}

#[test]
fn q13_returns_per_year_losses() {
    let data = tpcd::generate(0.002, 7);
    let (cat, _) = tpcd::load_bats(&data);
    let params = Params::for_data(&data);
    let ctx = ExecCtx::new();
    let rows = (all_queries()[12].run_moa)(&cat, &ctx, &params).unwrap();
    // The clerk's returned orders span a handful of years; all losses > 0.
    assert!(!rows.is_empty());
    for row in &rows.0 {
        assert_eq!(row.len(), 2);
        match (&row[0], &row[1]) {
            (monet::atom::AtomValue::Int(y), monet::atom::AtomValue::Dbl(l)) => {
                assert!((1992..=1998).contains(y));
                assert!(*l > 0.0);
            }
            other => panic!("unexpected Q13 row {other:?}"),
        }
    }
}

#[test]
fn queries_stable_across_runs() {
    let data = tpcd::generate(0.001, 5);
    let (cat, _) = tpcd::load_bats(&data);
    let params = Params::for_data(&data);
    let ctx = ExecCtx::new();
    let q3 = &all_queries()[2];
    let a = (q3.run_moa)(&cat, &ctx, &params).unwrap();
    let b = (q3.run_moa)(&cat, &ctx, &params).unwrap();
    assert!(a.approx_eq(&b, 0.0));
}
