//! Deterministic fault-injection sweep over the Q1–Q15 workload.
//!
//! Every governed point of a query — operator entries, the interpreter's
//! per-statement probe, and the morsel/task boundaries of the parallel
//! executor — must fail *cleanly* when a fault fires there: the query
//! returns a typed error, concurrent sessions are unaffected, the
//! admission gate and worker pool stay usable, the plan cache serves no
//! partially-built entry, and an immediate retry on the same session is
//! bit-identical to the uninjected oracle.
//!
//! The sweep leans on two determinism guarantees proved by PR 4/5: a
//! query's probe *count* is a pure function of data and parallel config
//! (morsel boundaries are properties of the operand, not the schedule),
//! and the injector fires at exactly the n-th probe arrival. So: run each
//! query once uninjected on a fresh governor to enumerate its N governed
//! points, then inject at successive points and assert clean failure plus
//! bit-identical recovery at each.

use std::sync::OnceLock;

use bench::World;
use flatalg_server::{Server, ServerConfig};
use moa::error::MoaError;
use monet::error::MonetError;
use monet::par;
use tpcd_queries::{all_queries, Query, QueryResult};

/// Small fixed-SF world: big enough that every query exercises parallel
/// regions under the forced config below, small enough that a
/// several-hundred-point sweep stays fast.
fn world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| World::build(0.002))
}

/// Forced parallel config for every run in this harness: 3 workers, no
/// row threshold (tiny operands still morselize), odd morsel size. This
/// makes the `par/morsel` and `par/task` sites fire on the tiny world and
/// pins the probe count independent of the host's core count.
fn governed<R>(f: impl FnOnce() -> R) -> R {
    par::with_par_config(Some(3), Some(1), Some(509), f)
}

fn server(w: &World) -> Server<'_> {
    Server::with_config(
        &w.cat,
        ServerConfig { max_concurrent: 4, plan_cache: Some(64), ..ServerConfig::default() },
    )
}

/// Injection points to test for a query with `n` governed points: the
/// full sweep when `full`, else a prefix (every early site: translate
/// boundary, first operator entries) plus a geometric spread and the very
/// last probe.
fn sweep_points(n: u64, full: bool) -> Vec<u64> {
    if full {
        return (1..=n).collect();
    }
    let mut ks: Vec<u64> = (1..=n.min(12)).collect();
    let mut k = 18u64;
    while k < n {
        ks.push(k);
        k = k * 3 / 2;
    }
    ks.push(n);
    ks.sort_unstable();
    ks.dedup();
    ks
}

/// The tentpole sweep: for every query, inject at successive governed
/// points (every point for aggregation-heavy Q1 and join-heavy Q5, a
/// dense-prefix-plus-spread sample for the rest) and require a typed
/// `Injected` error plus a bit-identical retry. The shared plan cache
/// must come through the whole sweep without a single re-miss: a failed
/// execution must neither evict nor poison a cached plan.
#[test]
fn fault_sweep_over_query_mix() {
    let w = world();
    // The world loads with encoded layouts on (the default), so this sweep
    // governs the encoded-path probe sites too: dict-code selects,
    // code-groups, and FOR scans all sit behind the same `op/*` probes the
    // injector counts. Under the `FLATALG_ENC=0` oracle leg the same sweep
    // covers the raw paths instead.
    if monet::enc::enc_enabled() {
        assert_eq!(
            w.cat.db().get("Order_clerk").unwrap().tail().encoding(),
            monet::props::Enc::Dict,
            "encoded-layout sweep world must actually hold encoded columns",
        );
    }
    let queries = all_queries();
    let server = server(w);
    governed(|| {
        let session = server.session();
        for q in &queries {
            session.run_query(q, &w.params).unwrap();
        }
    });
    let warm = server.stats().cache.unwrap();

    for q in &queries {
        // Uninjected oracle on a fresh governor, twice: the result and the
        // governed-point count must both be deterministic.
        let (n1, oracle) = oracle_run(&server, q);
        let (n2, again) = oracle_run(&server, q);
        assert_eq!(n1, n2, "q{}: probe count must be deterministic", q.id);
        assert_eq!(oracle, again, "q{}: uninjected runs must be bit-identical", q.id);
        assert!(n1 > 0, "q{}: no governed points — the sweep would prove nothing", q.id);

        for k in sweep_points(n1, q.id == 1 || q.id == 5) {
            let session = server.session();
            session.ctx().gov.arm_fault("*", k);
            match governed(|| session.run_query(q, &w.params)) {
                Err(MoaError::Kernel(MonetError::Injected { hit, .. })) => {
                    assert_eq!(hit, k, "q{}: fault fired at the wrong probe", q.id)
                }
                Err(e) => panic!("q{} k={k}/{n1}: expected injected fault, got: {e}", q.id),
                Ok(_) => panic!("q{} k={k}/{n1}: injected fault did not surface", q.id),
            }
            // One-shot injector: the immediate retry on the same session
            // runs clean and must reproduce the oracle bit-for-bit.
            let retry = governed(|| session.run_query(q, &w.params))
                .unwrap_or_else(|e| panic!("q{} k={k}/{n1}: retry failed: {e}", q.id));
            assert_eq!(retry, oracle, "q{} k={k}/{n1}: retry diverged from oracle", q.id);
        }
    }

    let end = server.stats().cache.unwrap();
    assert_eq!(
        (end.misses, end.len),
        (warm.misses, warm.len),
        "injected failures must not evict, poison, or partially populate cached plans"
    );
    assert_eq!(server.stats().waited, 0, "single-driver sweep must never queue");
}

fn oracle_run<'a>(server: &Server<'a>, q: &Query) -> (u64, QueryResult) {
    let w = world();
    let session = server.session();
    let r = governed(|| session.run_query(q, &w.params)).unwrap();
    (session.ctx().gov.probes(), r)
}

/// Faults are per-session: a victim session absorbing injected faults in
/// a tight loop must not perturb bystander sessions sharing the admission
/// gate, worker pool, and plan cache — and afterwards the victim's
/// session, the gate, and the pool must all still work.
#[test]
fn injected_faults_leave_bystanders_gate_and_pool_unaffected() {
    let w = world();
    let queries = all_queries();
    let server = server(w);
    let (q1, q3, q5) = (&queries[0], &queries[2], &queries[4]);
    let [oracle1, oracle3, oracle5] = [q1, q3, q5].map(|q| {
        let s = server.session();
        governed(|| s.run_query(q, &w.params)).unwrap()
    });

    let rounds = 8usize;
    std::thread::scope(|s| {
        let (server, w) = (&server, &w);
        let (oracle1, oracle3, oracle5) = (&oracle1, &oracle3, &oracle5);
        s.spawn(move || {
            for round in 0..rounds {
                let session = server.session();
                session.ctx().gov.arm_fault("*", 3 + 7 * round as u64);
                match governed(|| session.run_query(q5, &w.params)) {
                    Err(MoaError::Kernel(MonetError::Injected { .. })) => {}
                    other => panic!("victim round {round}: expected injected fault, got {other:?}"),
                }
                let retry = governed(|| session.run_query(q5, &w.params)).unwrap();
                assert_eq!(&retry, oracle5, "victim retry diverged in round {round}");
            }
        });
        for (q, oracle) in [(q1, oracle1), (q3, oracle3)] {
            s.spawn(move || {
                let session = server.session();
                for round in 0..rounds {
                    let got = governed(|| session.run_query(q, &w.params)).unwrap();
                    assert_eq!(&got, oracle, "bystander q{} diverged in round {round}", q.id);
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.failed as usize, rounds, "exactly the injected statements must fail");
    assert_eq!(stats.shed, 0, "no statement may be shed by a neighbor's faults");
    // The gate and pool survived the faults: a fresh session still runs
    // the whole mix.
    let session = server.session();
    for q in &queries {
        governed(|| session.run_query(q, &w.params)).unwrap();
    }
}

/// Encoded-path governance: kernels that run directly on dictionary codes
/// (dict-code select, code-group, unique over encoded tails) probe at
/// entry and must return every scratch buffer on every abort path. Faults
/// injected at successive probes of a kernel chain over a *dict-encoded*
/// column abort cleanly, retry bit-identically on the same context, and
/// leave the process-wide scratch checkout balance at its baseline.
#[test]
fn injected_faults_on_encoded_kernels_abort_cleanly_and_return_scratch() {
    use std::time::{Duration, Instant};

    use monet::ctx::ExecCtx;
    use monet::ops;
    use monet::typed;

    // The fixture is dict-encoded *explicitly* (not via the loader), so
    // this sweep covers the encoded paths under every CI leg — including
    // `FLATALG_ENC=0`, which only disables load-time encoding.
    let n = 4000usize;
    let clerk = &monet::bat::Bat::new(
        monet::column::Column::from_oids((0..n as u64).collect()),
        monet::column::Column::from_strs(
            (0..n).map(|i| format!("Clerk#{:018}", i % 7)).collect::<Vec<_>>(),
        )
        .encode(false),
    );
    assert_eq!(
        clerk.tail().encoding(),
        monet::props::Enc::Dict,
        "fixture must be dict-encoded — otherwise this sweeps the raw paths",
    );
    let probe = clerk.iter().next().unwrap().1;
    let baseline = typed::scratch_checked_out();
    // Uninjected chain on a fresh governor: records the oracle results and
    // enumerates the chain's N governed points, so the sweep below can
    // inject at every one of them (and only them — the injector is armed
    // per-context, so a k past the last probe would leak into the retry).
    let (oracle, n) = {
        let ctx = ExecCtx::new();
        let r = governed(|| {
            let sel = ops::select_eq(&ctx, clerk, &probe).unwrap();
            let grp = ops::group1(&ctx, clerk).unwrap();
            let uni = ops::unique(&ctx, clerk).unwrap();
            (sel.iter().collect::<Vec<_>>(), grp.len(), uni.iter().collect::<Vec<_>>())
        });
        (r, ctx.gov.probes())
    };
    assert!(n >= 3, "chain must pass at least its three operator-entry probes (got {n})");
    let mut aborts = 0usize;
    for k in 1u64..=n {
        let ctx = ExecCtx::new();
        ctx.gov.arm_fault("*", k);
        governed(|| {
            let r = ops::select_eq(&ctx, clerk, &probe)
                .and_then(|_| ops::group1(&ctx, clerk))
                .and_then(|_| ops::unique(&ctx, clerk).map(|_| ()));
            match r {
                Err(MonetError::Injected { hit, .. }) => {
                    assert_eq!(hit, k, "fault fired at the wrong probe");
                    aborts += 1;
                }
                Err(e) => panic!("k={k}: unexpected error {e}"),
                Ok(()) => panic!("k={k}/{n}: injected fault did not surface"),
            }
            // The context stays usable and the clean rerun matches the
            // group-id-modulo-base oracle exactly where ids are stable.
            let sel = ops::select_eq(&ctx, clerk, &probe).unwrap();
            assert_eq!(sel.iter().collect::<Vec<_>>(), oracle.0, "k={k}: select retry diverged");
            let grp = ops::group1(&ctx, clerk).unwrap();
            assert_eq!(grp.len(), oracle.1, "k={k}: group retry diverged");
            let uni = ops::unique(&ctx, clerk).unwrap();
            assert_eq!(uni.iter().collect::<Vec<_>>(), oracle.2, "k={k}: unique retry diverged");
        });
    }
    assert_eq!(aborts as u64, n, "every governed point of the encoded chain must abort once");
    // Other tests in this binary run concurrently and hold checkouts
    // transiently; poll for quiescence. A real abort-path leak never
    // settles back to the baseline.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let now = typed::scratch_checked_out();
        if now <= baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "encoded-path aborts leaked scratch: baseline {baseline}, now {now}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The memory governor aborts exactly the over-budget query: a session
/// with a tiny byte budget gets a typed `BudgetExceeded` while concurrent
/// unbudgeted sessions complete bit-identically, and lifting the budget
/// on the *same* session recovers it without a restart.
#[test]
fn memory_budget_aborts_that_query_only_and_lifting_recovers() {
    let w = world();
    let queries = all_queries();
    let server = server(w);
    let q1 = &queries[0];
    let oracle = {
        let s = server.session();
        governed(|| s.run_query(q1, &w.params)).unwrap()
    };

    std::thread::scope(|s| {
        let (server, w, oracle) = (&server, &w, &oracle);
        s.spawn(move || {
            let session = server.session();
            session.ctx().mem.set_budget(Some(64 * 1024));
            for _ in 0..4 {
                match governed(|| session.run_query(q1, &w.params)) {
                    Err(MoaError::Kernel(MonetError::BudgetExceeded { budget_bytes, .. })) => {
                        assert_eq!(budget_bytes, 64 * 1024)
                    }
                    other => panic!("expected budget abort, got {other:?}"),
                }
            }
            // Lifting the budget revives the session in place.
            session.ctx().mem.set_budget(None);
            let got = governed(|| session.run_query(q1, &w.params)).unwrap();
            assert_eq!(&got, oracle, "lifted-budget run diverged");
        });
        s.spawn(move || {
            let session = server.session();
            for round in 0..4 {
                let got = governed(|| session.run_query(q1, &w.params)).unwrap();
                assert_eq!(&got, oracle, "unbudgeted bystander diverged in round {round}");
            }
        });
    });
}
