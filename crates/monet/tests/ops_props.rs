//! Randomized property tests of the kernel operators against naive
//! reference implementations on plain `Vec<(oid, int)>` pairs.
//!
//! Deterministic by construction: every test draws from a `StdRng` with a
//! fixed seed, so failures reproduce exactly and the suite never flakes.
//! Complements `tests/kernel_properties.rs` (which checks that the
//! *alternative implementations* of each operator agree with each other):
//! here each operator is checked against an independent model.
//!
//! The second half of the file is the **specialized-vs-generic** suite: the
//! monomorphized typed kernels (`monet::typed`) are compared against the
//! row-wise generic reference implementations (`monet::ops::reference`) on
//! random inputs across *every* atom type — including `void`, `str`, and
//! sliced/offset column windows.

use std::collections::{HashMap, HashSet};

use monet::atom::AtomValue;
use monet::bat::Bat;
use monet::column::Column;
use monet::ctx::ExecCtx;
use monet::ops;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 40;
const SEED: u64 = 0x1CDE_1998;

/// Random association list: oids drawn with duplicates, small int alphabet
/// so selections and joins hit plenty of matches.
fn random_pairs(rng: &mut StdRng, max_len: usize) -> Vec<(u64, i32)> {
    let n = rng.gen_range(0..=max_len);
    (0..n).map(|_| (rng.gen_range(0..60u64), rng.gen_range(-25..25i32))).collect()
}

fn bat_of(pairs: &[(u64, i32)]) -> Bat {
    Bat::new(
        Column::from_oids(pairs.iter().map(|p| p.0).collect()),
        Column::from_ints(pairs.iter().map(|p| p.1).collect()),
    )
}

/// The (head, tail) multiset of an `[oid, int]` BAT, in canonical order.
fn pairs_of(b: &Bat) -> Vec<(u64, i32)> {
    let mut v: Vec<(u64, i32)> =
        (0..b.len()).map(|i| (b.head().oid_at(i), b.tail().int_at(i))).collect();
    v.sort_unstable();
    v
}

fn canon(mut pairs: Vec<(u64, i32)>) -> Vec<(u64, i32)> {
    pairs.sort_unstable();
    pairs
}

#[test]
fn select_eq_matches_reference_and_partitions() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let ctx = ExecCtx::new();
    for case in 0..CASES {
        let pairs = random_pairs(&mut rng, 80);
        let b = bat_of(&pairs);
        // Reference agreement for an arbitrary probe value.
        let v = rng.gen_range(-25..25i32);
        let got = ops::select_eq(&ctx, &b, &AtomValue::Int(v)).unwrap();
        let expect: Vec<(u64, i32)> = canon(pairs.iter().copied().filter(|p| p.1 == v).collect());
        assert_eq!(pairs_of(&got), expect, "case {case}: select_eq({v})");
        assert!(got.validate().is_ok(), "case {case}: claimed props unsound");
        // Round-trip: selecting every distinct value partitions the BAT.
        let mut distinct: Vec<i32> = pairs.iter().map(|p| p.1).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut reassembled = Vec::new();
        for v in distinct {
            let part = ops::select_eq(&ctx, &b, &AtomValue::Int(v)).unwrap();
            reassembled.extend(pairs_of(&part));
        }
        assert_eq!(canon(reassembled), canon(pairs), "case {case}: partition");
    }
}

#[test]
fn select_range_matches_reference() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    let ctx = ExecCtx::new();
    for case in 0..CASES {
        let pairs = random_pairs(&mut rng, 80);
        let b = bat_of(&pairs);
        let lo = rng.gen_range(-30..30i32);
        let hi = rng.gen_range(lo..=30i32);
        let (lo_in, hi_in) = (rng.gen_bool(0.5), rng.gen_bool(0.5));
        let got = ops::select_range(
            &ctx,
            &b,
            Some(&AtomValue::Int(lo)),
            Some(&AtomValue::Int(hi)),
            lo_in,
            hi_in,
        )
        .unwrap();
        let keep = |t: i32| {
            (if lo_in { t >= lo } else { t > lo }) && (if hi_in { t <= hi } else { t < hi })
        };
        let expect: Vec<(u64, i32)> = canon(pairs.iter().copied().filter(|p| keep(p.1)).collect());
        assert_eq!(
            pairs_of(&got),
            expect,
            "case {case}: select_range({lo}{}..{hi}{})",
            if lo_in { "=" } else { "" },
            if hi_in { "=" } else { "" },
        );
        // One-sided ranges degenerate to the same model.
        let ge = ops::select_range(&ctx, &b, Some(&AtomValue::Int(lo)), None, true, true).unwrap();
        let expect_ge: Vec<(u64, i32)> =
            canon(pairs.iter().copied().filter(|p| p.1 >= lo).collect());
        assert_eq!(pairs_of(&ge), expect_ge, "case {case}: select_range({lo}=..)");
    }
}

#[test]
fn join_matches_nested_loop_reference() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    let ctx = ExecCtx::new();
    for case in 0..CASES {
        // left: [oid, oid] referencing right's head domain; right: [oid, int].
        let left_pairs: Vec<(u64, u64)> = (0..rng.gen_range(0..60usize))
            .map(|_| (rng.gen_range(0..40u64), rng.gen_range(0..40u64)))
            .collect();
        let right_pairs = random_pairs(&mut rng, 60);
        let left = Bat::new(
            Column::from_oids(left_pairs.iter().map(|p| p.0).collect()),
            Column::from_oids(left_pairs.iter().map(|p| p.1).collect()),
        );
        let right = bat_of(&right_pairs);
        let got = ops::join(&ctx, &left, &right).unwrap();
        // Nested-loop model: match left tail against right head.
        let mut expect: Vec<(u64, i32)> = Vec::new();
        for &(h, t) in &left_pairs {
            for &(h2, t2) in &right_pairs {
                if t == h2 {
                    expect.push((h, t2));
                }
            }
        }
        assert_eq!(pairs_of(&got), canon(expect), "case {case}: join");
        assert!(got.validate().is_ok(), "case {case}: claimed props unsound");
    }
}

#[test]
fn semijoin_antijoin_match_reference_and_partition() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 3);
    let ctx = ExecCtx::new();
    for case in 0..CASES {
        let pairs = random_pairs(&mut rng, 80);
        let b = bat_of(&pairs);
        // Selection BAT: unique oids with void tail, as produced by selects.
        let mut sel_oids: Vec<u64> =
            (0..rng.gen_range(0..30usize)).map(|_| rng.gen_range(0..60u64)).collect();
        sel_oids.sort_unstable();
        sel_oids.dedup();
        let n = sel_oids.len();
        let sel = Bat::with_inferred_props(Column::from_oids(sel_oids.clone()), Column::void(0, n));
        let keep: HashSet<u64> = sel_oids.into_iter().collect();
        let semi = ops::semijoin(&ctx, &b, &sel).unwrap();
        let anti = ops::antijoin(&ctx, &b, &sel).unwrap();
        let expect_semi: Vec<(u64, i32)> =
            canon(pairs.iter().copied().filter(|p| keep.contains(&p.0)).collect());
        let expect_anti: Vec<(u64, i32)> =
            canon(pairs.iter().copied().filter(|p| !keep.contains(&p.0)).collect());
        assert_eq!(pairs_of(&semi), expect_semi, "case {case}: semijoin");
        assert_eq!(pairs_of(&anti), expect_anti, "case {case}: antijoin");
        // Round-trip: the two halves reassemble the operand exactly.
        let mut whole = pairs_of(&semi);
        whole.extend(pairs_of(&anti));
        assert_eq!(canon(whole), canon(pairs), "case {case}: partition");
    }
}

#[test]
fn unique_matches_reference_and_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 4);
    let ctx = ExecCtx::new();
    for case in 0..CASES {
        // Small alphabets force plenty of duplicate (head, tail) pairs.
        let n = rng.gen_range(0..80usize);
        let pairs: Vec<(u64, i32)> =
            (0..n).map(|_| (rng.gen_range(0..10u64), rng.gen_range(-4..4i32))).collect();
        let b = bat_of(&pairs);
        let u = ops::unique(&ctx, &b).unwrap();
        let mut expect = canon(pairs.clone());
        expect.dedup();
        assert_eq!(pairs_of(&u), expect, "case {case}: unique");
        let uu = ops::unique(&ctx, &u).unwrap();
        assert_eq!(pairs_of(&uu), pairs_of(&u), "case {case}: idempotence");
        assert!(u.validate().is_ok(), "case {case}: claimed props unsound");
    }
}

#[test]
fn group_assignment_and_counts_match_reference() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 5);
    let ctx = ExecCtx::new();
    for case in 0..CASES {
        let pairs = random_pairs(&mut rng, 80);
        let b = bat_of(&pairs);
        let g = ops::group1(&ctx, &b).unwrap();
        assert!(g.synced(&b), "case {case}: group result must stay synced");
        // Two rows share a group oid iff they share a tail value.
        let mut group_value: HashMap<u64, i32> = HashMap::new();
        let mut value_group: HashMap<i32, u64> = HashMap::new();
        for i in 0..b.len() {
            let gid = g.tail().oid_at(i);
            let val = b.tail().int_at(i);
            assert_eq!(
                *group_value.entry(gid).or_insert(val),
                val,
                "case {case}: group {gid} spans values"
            );
            assert_eq!(
                *value_group.entry(val).or_insert(gid),
                gid,
                "case {case}: value {val} split across groups"
            );
        }
        // Per-group counts match the value histogram.
        let mut histogram: HashMap<i32, i64> = HashMap::new();
        for &(_, v) in &pairs {
            *histogram.entry(v).or_insert(0) += 1;
        }
        let counts = ops::set_aggregate(&ctx, ops::AggFunc::Count, &g.mirror()).unwrap();
        assert_eq!(counts.len(), histogram.len(), "case {case}: group count");
        for i in 0..counts.len() {
            let gid = counts.head().oid_at(i);
            let cnt = counts.tail().lng_at(i);
            let val = group_value[&gid];
            assert_eq!(cnt, histogram[&val], "case {case}: count of value {val}");
        }
    }
}

#[test]
fn sort_tail_is_an_ordered_permutation() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 6);
    let ctx = ExecCtx::new();
    for case in 0..CASES {
        let pairs = random_pairs(&mut rng, 80);
        let b = bat_of(&pairs);
        let s = ops::sort_tail(&ctx, &b).unwrap();
        assert_eq!(pairs_of(&s), canon(pairs), "case {case}: sort permutes");
        for i in 1..s.len() {
            assert!(
                s.tail().int_at(i - 1) <= s.tail().int_at(i),
                "case {case}: tail not ordered at {i}"
            );
        }
        assert!(s.validate().is_ok(), "case {case}: claimed props unsound");
    }
}

// ======================================================================
// Specialized-vs-generic suite: typed kernels against `ops::reference`.
// ======================================================================

use monet::atom::{AtomType, Date};
use monet::ops::reference;

const ALL_TYPES: &[AtomType] = &[
    AtomType::Void,
    AtomType::Oid,
    AtomType::Bool,
    AtomType::Chr,
    AtomType::Int,
    AtomType::Lng,
    AtomType::Dbl,
    AtomType::Str,
    AtomType::Date,
];

/// A random scalar of `ty` from a small alphabet (so selections and joins
/// hit plenty of matches and duplicates).
fn random_value(rng: &mut StdRng, ty: AtomType) -> AtomValue {
    match ty {
        AtomType::Void | AtomType::Oid => AtomValue::Oid(rng.gen_range(0..24u64)),
        AtomType::Bool => AtomValue::Bool(rng.gen_bool(0.5)),
        AtomType::Chr => AtomValue::Chr(rng.gen_range(b'a'..=b'e')),
        AtomType::Int => AtomValue::Int(rng.gen_range(-8..8i32)),
        AtomType::Lng => AtomValue::Lng(rng.gen_range(-9..9i64)),
        AtomType::Dbl => {
            let vals = [-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.25, 7.5];
            AtomValue::Dbl(vals[rng.gen_range(0..vals.len())])
        }
        AtomType::Str => {
            let vocab = ["", "a", "ab", "b", "ba", "zz", "EUROPE", "ASIA"];
            AtomValue::str(vocab[rng.gen_range(0..vocab.len())])
        }
        AtomType::Date => AtomValue::Date(Date(rng.gen_range(8000..8020i32))),
    }
}

/// A random column of `ty`, optionally presented as an offset window into a
/// larger allocation (exercising `off != 0` in every typed kernel).
fn random_column(rng: &mut StdRng, ty: AtomType, n: usize) -> Column {
    let windowed = rng.gen_bool(0.5);
    let (pre, post) =
        if windowed { (rng.gen_range(0..4usize), rng.gen_range(0..4usize)) } else { (0, 0) };
    let total = n + pre + post;
    let col = if ty == AtomType::Void {
        Column::void(rng.gen_range(0..30u64), total)
    } else {
        Column::from_atoms(ty, (0..total).map(|_| random_value(rng, ty)))
    };
    col.slice(pre, n)
}

/// Exact (head, tail) value sequence — order matters.
fn rows_of(b: &Bat) -> Vec<(AtomValue, AtomValue)> {
    b.iter().collect()
}

/// Canonical first-appearance relabeling of a group-id column.
fn canon_gids(tail: &Column) -> Vec<u64> {
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut out = Vec::with_capacity(tail.len());
    for i in 0..tail.len() {
        let g = tail.oid_at(i);
        let next = map.len() as u64;
        out.push(*map.entry(g).or_insert(next));
    }
    out
}

#[test]
fn typed_select_matches_generic_across_types() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x10);
    let ctx = ExecCtx::new();
    for &ty in ALL_TYPES {
        for case in 0..10 {
            let n = rng.gen_range(0..50usize);
            let head = random_column(&mut rng, AtomType::Oid, n);
            let tail = random_column(&mut rng, ty, n);
            let b = Bat::new(head, tail);
            let v = random_value(&mut rng, ty);
            let got = ops::select_eq(&ctx, &b, &v).unwrap();
            assert_eq!(
                rows_of(&got),
                rows_of(&reference::select_eq(&b, &v)),
                "{ty} case {case}: select_eq"
            );
            let (a, c) = (random_value(&mut rng, ty), random_value(&mut rng, ty));
            let (lo, hi) = if a.cmp_same_type(&c).is_le() { (a, c) } else { (c, a) };
            let (il, ih) = (rng.gen_bool(0.5), rng.gen_bool(0.5));
            let got = ops::select_range(&ctx, &b, Some(&lo), Some(&hi), il, ih).unwrap();
            let expect = reference::select_range(&b, Some(&lo), Some(&hi), il, ih);
            assert_eq!(rows_of(&got), rows_of(&expect), "{ty} case {case}: select_range");
            // Sorted operand takes the binary-search path; same window.
            let perm = b.tail().sort_perm();
            let sorted = Bat::with_inferred_props(b.head().gather(&perm), b.tail().gather(&perm));
            let got = ops::select_eq(&ctx, &sorted, &v).unwrap();
            assert_eq!(
                rows_of(&got),
                rows_of(&reference::select_eq(&sorted, &v)),
                "{ty} case {case}: select_eq sorted"
            );
        }
    }
}

#[test]
fn typed_join_matches_generic_across_types() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x11);
    let ctx = ExecCtx::new();
    for &ty in ALL_TYPES {
        for case in 0..8 {
            let n = rng.gen_range(0..40usize);
            let m = rng.gen_range(0..40usize);
            let left =
                Bat::new(random_column(&mut rng, AtomType::Oid, n), random_column(&mut rng, ty, n));
            let right =
                Bat::new(random_column(&mut rng, ty, m), random_column(&mut rng, AtomType::Int, m));
            // Hash path (no props claimed).
            let got = ops::join(&ctx, &left, &right).unwrap();
            assert_eq!(
                rows_of(&got),
                rows_of(&reference::join(&left, &right)),
                "{ty} case {case}: join hash"
            );
            // Merge path: sort left tail and right head.
            let lp = left.tail().sort_perm();
            let ls = Bat::with_inferred_props(left.head().gather(&lp), left.tail().gather(&lp));
            let rp = right.head().sort_perm();
            let rs = Bat::with_inferred_props(right.head().gather(&rp), right.tail().gather(&rp));
            let got = ops::join(&ctx, &ls, &rs).unwrap();
            assert_eq!(
                rows_of(&got),
                rows_of(&reference::join(&ls, &rs)),
                "{ty} case {case}: join merge"
            );
            // Theta joins against both sorted and unsorted right heads.
            if !matches!(ty, AtomType::Void) {
                for theta in [ops::ScalarFunc::Lt, ops::ScalarFunc::Ge, ops::ScalarFunc::Ne] {
                    let got = ops::join_theta(&ctx, &left, &right, theta).unwrap();
                    let expect = reference::join_theta(&left, &right, theta);
                    let mut g = rows_of(&got);
                    let mut e = rows_of(&expect);
                    let key = |p: &(AtomValue, AtomValue)| format!("{}|{}", p.0, p.1);
                    g.sort_by_key(key);
                    e.sort_by_key(key);
                    assert_eq!(g, e, "{ty} case {case}: theta {theta:?}");
                }
            }
        }
    }
    // Fetch path: dense (void) right head.
    for case in 0..8 {
        let n = rng.gen_range(0..40usize);
        let m = rng.gen_range(1..20usize);
        let left = Bat::new(
            random_column(&mut rng, AtomType::Oid, n),
            random_column(&mut rng, AtomType::Oid, n),
        );
        let right = Bat::new(Column::void(5, m), random_column(&mut rng, AtomType::Dbl, m));
        let got = ops::join(&ctx, &left, &right).unwrap();
        assert_eq!(
            rows_of(&got),
            rows_of(&reference::join(&left, &right)),
            "case {case}: join fetch"
        );
    }
}

#[test]
fn typed_semijoin_matches_generic_across_types() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x12);
    let ctx = ExecCtx::new();
    for &ty in ALL_TYPES {
        for case in 0..8 {
            let n = rng.gen_range(0..50usize);
            let m = rng.gen_range(0..20usize);
            let ab =
                Bat::new(random_column(&mut rng, ty, n), random_column(&mut rng, AtomType::Int, n));
            let cd =
                Bat::new(random_column(&mut rng, ty, m), random_column(&mut rng, AtomType::Oid, m));
            let semi = ops::semijoin(&ctx, &ab, &cd).unwrap();
            let anti = ops::antijoin(&ctx, &ab, &cd).unwrap();
            assert_eq!(
                rows_of(&semi),
                rows_of(&reference::semijoin(&ab, &cd)),
                "{ty} case {case}: semijoin"
            );
            assert_eq!(
                rows_of(&anti),
                rows_of(&reference::antijoin(&ab, &cd)),
                "{ty} case {case}: antijoin"
            );
            // Merge path over sorted heads.
            let ap = ab.head().sort_perm();
            let abs = Bat::with_inferred_props(ab.head().gather(&ap), ab.tail().gather(&ap));
            let cp = cd.head().sort_perm();
            let cds = Bat::with_inferred_props(cd.head().gather(&cp), cd.tail().gather(&cp));
            let semi = ops::semijoin(&ctx, &abs, &cds).unwrap();
            assert_eq!(
                rows_of(&semi),
                rows_of(&reference::semijoin(&abs, &cds)),
                "{ty} case {case}: semijoin merge"
            );
        }
    }
}

#[test]
fn typed_group_matches_generic_across_types() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x13);
    let ctx = ExecCtx::new();
    for &ty in ALL_TYPES {
        for case in 0..8 {
            let n = rng.gen_range(0..50usize);
            let b =
                Bat::new(random_column(&mut rng, AtomType::Oid, n), random_column(&mut rng, ty, n));
            let g = ops::group1(&ctx, &b).unwrap();
            assert_eq!(
                canon_gids(g.tail()),
                reference::group1_gids(&b),
                "{ty} case {case}: group1 hash"
            );
            // Merge path over a sorted tail: ids are assigned in value order
            // but partition the rows identically.
            let perm = b.tail().sort_perm();
            let bs = Bat::with_inferred_props(b.head().gather(&perm), b.tail().gather(&perm));
            let gs = ops::group1(&ctx, &bs).unwrap();
            assert_eq!(
                canon_gids(gs.tail()),
                reference::group1_gids(&bs),
                "{ty} case {case}: group1 merge"
            );
        }
    }
    // group2: every tail-type pair, synced heads (key head in cd).
    for &t1 in ALL_TYPES {
        for &t2 in ALL_TYPES {
            let n = rng.gen_range(1..30usize);
            let head = random_column(&mut rng, AtomType::Void, n);
            let ab = Bat::new(head.clone(), random_column(&mut rng, t1, n));
            let cd = Bat::new(head, random_column(&mut rng, t2, n));
            let g = ops::group2(&ctx, &ab, &cd).unwrap();
            let expect = reference::group2_gids(&ab, &cd).unwrap();
            let expect_canon = {
                let mut map: HashMap<u64, u64> = HashMap::new();
                expect
                    .iter()
                    .map(|&g| {
                        let next = map.len() as u64;
                        *map.entry(g).or_insert(next)
                    })
                    .collect::<Vec<u64>>()
            };
            assert_eq!(canon_gids(g.tail()), expect_canon, "group2 ({t1}, {t2})");
        }
    }
}

#[test]
fn typed_unique_matches_generic_across_type_pairs() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x14);
    let ctx = ExecCtx::new();
    for &t1 in ALL_TYPES {
        for &t2 in ALL_TYPES {
            let n = rng.gen_range(0..40usize);
            let b = Bat::new(random_column(&mut rng, t1, n), random_column(&mut rng, t2, n));
            let u = ops::unique(&ctx, &b).unwrap();
            assert_eq!(rows_of(&u), rows_of(&reference::unique(&b)), "unique ({t1}, {t2}) hash");
            // Merge path over a sorted head.
            let perm = b.head().sort_perm();
            let bs = Bat::with_inferred_props(b.head().gather(&perm), b.tail().gather(&perm));
            let us = ops::unique(&ctx, &bs).unwrap();
            assert_eq!(rows_of(&us), rows_of(&reference::unique(&bs)), "unique ({t1}, {t2}) merge");
        }
    }
}

#[test]
fn typed_sort_matches_generic_across_types() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x15);
    let ctx = ExecCtx::new();
    for &ty in ALL_TYPES {
        for case in 0..8 {
            let n = rng.gen_range(0..50usize);
            let b =
                Bat::new(random_column(&mut rng, AtomType::Oid, n), random_column(&mut rng, ty, n));
            let s = ops::sort_tail(&ctx, &b).unwrap();
            assert_eq!(
                rows_of(&s),
                rows_of(&reference::sort_tail(&b)),
                "{ty} case {case}: sort_tail"
            );
        }
        // Explicit sliced/offset window: the typed direct sort must respect
        // the view, not the backing allocation.
        let n = 24;
        let head = random_column(&mut rng, AtomType::Oid, n);
        let tail = random_column(&mut rng, ty, n + 9).slice(6, n);
        let b = Bat::new(head, tail);
        let s = ops::sort_tail(&ctx, &b).unwrap();
        assert_eq!(rows_of(&s), rows_of(&reference::sort_tail(&b)), "{ty}: sort_tail windowed");
    }
}

#[test]
fn typed_topn_matches_reference_across_types() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x1A);
    let ctx = ExecCtx::new();
    for &ty in ALL_TYPES {
        for case in 0..8 {
            let n = rng.gen_range(0..50usize);
            let b =
                Bat::new(random_column(&mut rng, AtomType::Oid, n), random_column(&mut rng, ty, n));
            // Small alphabets guarantee duplicate tails: the stability of
            // ties (operand order, both directions) is what's under test.
            for descending in [false, true] {
                let k = rng.gen_range(0..n + 3);
                let got = ops::topn(&ctx, &b, k, descending).unwrap();
                assert_eq!(
                    rows_of(&got),
                    rows_of(&reference::topn(&b, k, descending)),
                    "{ty} case {case}: topn({k}, desc={descending})"
                );
            }
        }
    }
}

#[test]
fn partitioned_join_matches_generic_across_types() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x1B);
    let ctx = ExecCtx::new();
    for &ty in ALL_TYPES {
        for case in 0..8 {
            let n = rng.gen_range(0..40usize);
            let m = rng.gen_range(0..40usize);
            let left =
                Bat::new(random_column(&mut rng, AtomType::Oid, n), random_column(&mut rng, ty, n));
            let right =
                Bat::new(random_column(&mut rng, ty, m), random_column(&mut rng, AtomType::Int, m));
            // Forced partitioned path (the dispatcher only picks it above
            // the cache threshold); output must be bit-identical to the
            // generic reference, including pair order.
            let got = ops::join_partitioned(&ctx, &left, &right).unwrap();
            assert_eq!(
                rows_of(&got),
                rows_of(&reference::join(&left, &right)),
                "{ty} case {case}: join partitioned"
            );
        }
    }
}

#[test]
fn typed_aggregate_matches_generic_across_types() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x16);
    let ctx = ExecCtx::new();
    let aggs = [
        ops::AggFunc::Count,
        ops::AggFunc::Sum,
        ops::AggFunc::Min,
        ops::AggFunc::Max,
        ops::AggFunc::Avg,
    ];
    for &ty in ALL_TYPES {
        for case in 0..6 {
            let n = rng.gen_range(0..40usize);
            let b =
                Bat::new(random_column(&mut rng, AtomType::Oid, n), random_column(&mut rng, ty, n));
            for f in aggs {
                let got = ops::set_aggregate(&ctx, f, &b);
                let expect = reference::set_aggregate(f, &b);
                match (got, expect) {
                    (Ok(g), Ok(e)) => {
                        assert_eq!(rows_of(&g), rows_of(&e), "{ty} case {case}: {{{}}}", f.name())
                    }
                    (Err(_), Err(_)) => {}
                    (g, e) => panic!(
                        "{ty} case {case}: {{{}}} disagree on error: {g:?} vs {e:?}",
                        f.name()
                    ),
                }
                let got = ops::aggr_scalar(&ctx, &b, f);
                let expect = reference::aggr_scalar(&b, f);
                match (got, expect) {
                    (Ok(g), Ok(e)) => assert_eq!(g, e, "{ty} case {case}: scalar {}", f.name()),
                    (Err(_), Err(_)) => {}
                    (g, e) => panic!(
                        "{ty} case {case}: scalar {} disagree on error: {g:?} vs {e:?}",
                        f.name()
                    ),
                }
            }
            // Merge path over sorted heads.
            let perm = b.head().sort_perm();
            let bs = Bat::with_inferred_props(b.head().gather(&perm), b.tail().gather(&perm));
            for f in aggs {
                match (ops::set_aggregate(&ctx, f, &bs), reference::set_aggregate(f, &bs)) {
                    (Ok(g), Ok(e)) => assert_eq!(
                        rows_of(&g),
                        rows_of(&e),
                        "{ty} case {case}: sorted {{{}}}",
                        f.name()
                    ),
                    (Err(_), Err(_)) => {}
                    (g, e) => panic!("{ty} case {case}: sorted {{{}}}: {g:?} vs {e:?}", f.name()),
                }
            }
        }
    }
}

#[test]
fn typed_multiplex_matches_generic() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x17);
    let ctx = ExecCtx::new();
    use ops::{MultArg, ScalarFunc as F};
    let value_types = [
        AtomType::Int,
        AtomType::Lng,
        AtomType::Dbl,
        AtomType::Date,
        AtomType::Chr,
        AtomType::Bool,
        AtomType::Str,
    ];
    for case in 0..30 {
        let n = rng.gen_range(0..40usize);
        let head = random_column(&mut rng, AtomType::Oid, n);
        for &ty in &value_types {
            let x = Bat::new(head.clone(), random_column(&mut rng, ty, n));
            let arg2 = if rng.gen_bool(0.4) {
                MultArg::Const(random_value(&mut rng, ty))
            } else {
                MultArg::Bat(Bat::new(head.clone(), random_column(&mut rng, ty, n)))
            };
            let funcs: Vec<F> = match ty {
                AtomType::Int | AtomType::Lng | AtomType::Dbl => {
                    vec![F::Add, F::Sub, F::Mul, F::Div, F::Eq, F::Lt, F::Ge, F::Ne]
                }
                AtomType::Date | AtomType::Chr => vec![F::Eq, F::Ne, F::Lt, F::Le, F::Gt, F::Ge],
                AtomType::Bool => vec![F::And, F::Or, F::Eq, F::Ne],
                _ => vec![F::Eq, F::Ne, F::Lt, F::Gt],
            };
            for f in funcs {
                let args = [MultArg::Bat(x.clone()), arg2.clone()];
                let got = ops::multiplex(&ctx, f, &args);
                let expect = reference::multiplex_synced(f, &args);
                match (got, expect) {
                    (Ok(g), Ok(e)) => {
                        assert_eq!(rows_of(&g), rows_of(&e), "case {case}: [{:?}] over {ty}", f)
                    }
                    (Err(_), Err(_)) => {}
                    (g, e) => {
                        panic!("case {case}: [{f:?}] over {ty} disagree on error: {g:?} vs {e:?}")
                    }
                }
            }
        }
        // Unary shapes.
        let dates = Bat::new(head.clone(), random_column(&mut rng, AtomType::Date, n));
        for f in [F::Year, F::Month] {
            let args = [MultArg::Bat(dates.clone())];
            let g = ops::multiplex(&ctx, f, &args).unwrap();
            let e = reference::multiplex_synced(f, &args).unwrap();
            assert_eq!(rows_of(&g), rows_of(&e), "case {case}: [{f:?}]");
        }
        let bools = Bat::new(head.clone(), random_column(&mut rng, AtomType::Bool, n));
        let args = [MultArg::Bat(bools)];
        assert_eq!(
            rows_of(&ops::multiplex(&ctx, F::Not, &args).unwrap()),
            rows_of(&reference::multiplex_synced(F::Not, &args).unwrap()),
            "case {case}: [not]"
        );
        for ty in [AtomType::Int, AtomType::Lng, AtomType::Dbl] {
            let xs = Bat::new(head.clone(), random_column(&mut rng, ty, n));
            let args = [MultArg::Bat(xs)];
            assert_eq!(
                rows_of(&ops::multiplex(&ctx, F::Neg, &args).unwrap()),
                rows_of(&reference::multiplex_synced(F::Neg, &args).unwrap()),
                "case {case}: [neg] {ty}"
            );
        }
        // Constant-pattern string predicates.
        let strs = Bat::new(head.clone(), random_column(&mut rng, AtomType::Str, n));
        for f in [F::StrPrefix, F::StrContains] {
            let args =
                [MultArg::Bat(strs.clone()), MultArg::Const(random_value(&mut rng, AtomType::Str))];
            assert_eq!(
                rows_of(&ops::multiplex(&ctx, f, &args).unwrap()),
                rows_of(&reference::multiplex_synced(f, &args).unwrap()),
                "case {case}: [{f:?}]"
            );
        }
        // Mixed shapes fall back to the generic path; results must agree.
        let ints = Bat::new(head.clone(), random_column(&mut rng, AtomType::Int, n));
        let args = [MultArg::Bat(ints), MultArg::Const(AtomValue::Dbl(2.5))];
        assert_eq!(
            rows_of(&ops::multiplex(&ctx, F::Mul, &args).unwrap()),
            rows_of(&reference::multiplex_synced(F::Mul, &args).unwrap()),
            "case {case}: mixed [*]"
        );
    }
}

#[test]
fn typed_setops_match_generic() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x18);
    let ctx = ExecCtx::new();
    for &(t1, t2) in &[
        (AtomType::Oid, AtomType::Int),
        (AtomType::Str, AtomType::Str),
        (AtomType::Dbl, AtomType::Chr),
        (AtomType::Date, AtomType::Bool),
    ] {
        for case in 0..10 {
            let n = rng.gen_range(0..30usize);
            let m = rng.gen_range(0..30usize);
            let a = Bat::new(random_column(&mut rng, t1, n), random_column(&mut rng, t2, n));
            let b = Bat::new(random_column(&mut rng, t1, m), random_column(&mut rng, t2, m));
            let u = ops::union_pairs(&ctx, &a, &b).unwrap();
            assert_eq!(
                rows_of(&u),
                rows_of(&reference::union_pairs(&a, &b)),
                "({t1},{t2}) case {case}: union"
            );
            let d = ops::diff_pairs(&ctx, &a, &b).unwrap();
            assert_eq!(
                rows_of(&d),
                rows_of(&reference::diff_pairs(&a, &b)),
                "({t1},{t2}) case {case}: diff"
            );
            let i = ops::intersect_pairs(&ctx, &a, &b).unwrap();
            assert_eq!(
                rows_of(&i),
                rows_of(&reference::intersect_pairs(&a, &b)),
                "({t1},{t2}) case {case}: intersect"
            );
            let c = ops::concat_bats(&ctx, &a, &b).unwrap();
            assert_eq!(
                rows_of(&c),
                rows_of(&reference::concat_bats(&a, &b)),
                "({t1},{t2}) case {case}: concat"
            );
        }
    }
}

// ======================================================================
// Encoded-vs-decoded suite: dict/FOR/RLE tails through every kernel.
// ======================================================================

use monet::props::Enc;

/// Random scalar of `ty` from the alphabets used by [`encoded_pair`]: long
/// duplicated strings so dictionary encoding's size gate engages (the raw
/// heap is not deduplicated), narrow numeric ranges so frame-of-reference
/// always fits a `u8` delta.
fn encodable_value(rng: &mut StdRng, ty: AtomType) -> AtomValue {
    match ty {
        AtomType::Str => AtomValue::str(format!("Clerk#00000000000000000{}", rng.gen_range(0..5))),
        _ => random_value(rng, ty),
    }
}

/// An encoded random column of `ty` plus its raw twin exposing the same
/// values over the same window — possibly an offset slice into a larger
/// allocation, so every typed kernel sees `off != 0` encoded views too.
/// `sorted` sorts the values first and encodes with the RLE gate unlocked.
/// Panics if the fixture fails to encode: the alphabets are sized so the
/// encoders' size gates always pass, and a silently-raw twin would turn
/// the whole suite into a vacuous raw-vs-raw comparison.
fn encoded_pair(rng: &mut StdRng, ty: AtomType, n: usize, sorted: bool) -> (Column, Column) {
    let (pre, post) = if rng.gen_bool(0.5) {
        (rng.gen_range(0..4usize), rng.gen_range(0..4usize))
    } else {
        (0, 0)
    };
    let total = n + pre + post;
    // Sorted fixtures use a 4-value alphabet: at most 4 runs, so the RLE
    // run-count gate (`runs * 4 <= rows`) passes for every n >= 16.
    let mut vals: Vec<AtomValue> = if sorted {
        (0..total)
            .map(|_| {
                let i = rng.gen_range(0..4i32);
                match ty {
                    AtomType::Str => AtomValue::str(format!("Clerk#00000000000000000{i}")),
                    AtomType::Int => AtomValue::Int(i),
                    AtomType::Lng => AtomValue::Lng(i as i64),
                    AtomType::Dbl => AtomValue::Dbl(i as f64),
                    AtomType::Date => AtomValue::Date(Date(8000 + i)),
                    _ => unreachable!("no RLE fixture for {ty}"),
                }
            })
            .collect()
    } else {
        (0..total).map(|_| encodable_value(rng, ty)).collect()
    };
    if sorted {
        vals.sort_by(|a, b| a.cmp_same_type(b));
    }
    let raw = Column::from_atoms(ty, vals.into_iter());
    let enc = raw.encode(sorted);
    let want = if sorted {
        Enc::Rle
    } else if ty == AtomType::Str {
        Enc::Dict
    } else {
        Enc::For
    };
    assert_eq!(enc.encoding(), want, "{ty} sorted={sorted}: fixture must actually encode");
    (enc.slice(pre, n), raw.slice(pre, n))
}

#[test]
fn encoded_tail_matches_raw_across_kernels() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x20);
    let ctx = ExecCtx::new();
    // (type, sorted): dict strings, FOR ints/lngs/dates, RLE runs.
    let legs: &[(AtomType, bool)] = &[
        (AtomType::Str, false),
        (AtomType::Int, false),
        (AtomType::Lng, false),
        (AtomType::Date, false),
        (AtomType::Str, true),
        (AtomType::Int, true),
        (AtomType::Dbl, true),
    ];
    for &(ty, sorted) in legs {
        for case in 0..8 {
            let n = rng.gen_range(24..64usize);
            let head = random_column(&mut rng, AtomType::Oid, n);
            let (et, rt) = encoded_pair(&mut rng, ty, n, sorted);
            let eb = Bat::new(head.clone(), et.clone());
            let rb = Bat::new(head.clone(), rt.clone());
            let tag = format!("{ty} sorted={sorted} case {case}");

            // Selections: point and range, member and non-member probes.
            let v = encodable_value(&mut rng, ty);
            let g = ops::select_eq(&ctx, &eb, &v).unwrap();
            let e = ops::select_eq(&ctx, &rb, &v).unwrap();
            assert_eq!(rows_of(&g), rows_of(&e), "{tag}: select_eq");
            assert!(g.validate().is_ok(), "{tag}: select_eq props unsound");
            let (a, c) = (encodable_value(&mut rng, ty), encodable_value(&mut rng, ty));
            let (lo, hi) = if a.cmp_same_type(&c).is_le() { (a, c) } else { (c, a) };
            let (il, ih) = (rng.gen_bool(0.5), rng.gen_bool(0.5));
            let g = ops::select_range(&ctx, &eb, Some(&lo), Some(&hi), il, ih).unwrap();
            let e = ops::select_range(&ctx, &rb, Some(&lo), Some(&hi), il, ih).unwrap();
            assert_eq!(rows_of(&g), rows_of(&e), "{tag}: select_range");
            let g = ops::select_range(&ctx, &eb, Some(&lo), None, il, true).unwrap();
            let e = ops::select_range(&ctx, &rb, Some(&lo), None, il, true).unwrap();
            assert_eq!(rows_of(&g), rows_of(&e), "{tag}: select_range one-sided");

            // Grouping, uniqueness, ordering.
            let g = ops::group1(&ctx, &eb).unwrap();
            let e = ops::group1(&ctx, &rb).unwrap();
            assert_eq!(canon_gids(g.tail()), canon_gids(e.tail()), "{tag}: group1");
            let g = ops::unique(&ctx, &eb).unwrap();
            let e = ops::unique(&ctx, &rb).unwrap();
            assert_eq!(rows_of(&g), rows_of(&e), "{tag}: unique");
            let g = ops::sort_tail(&ctx, &eb).unwrap();
            let e = ops::sort_tail(&ctx, &rb).unwrap();
            assert_eq!(rows_of(&g), rows_of(&e), "{tag}: sort_tail");
            let k = rng.gen_range(0..n + 2);
            for desc in [false, true] {
                let g = ops::topn(&ctx, &eb, k, desc).unwrap();
                let e = ops::topn(&ctx, &rb, k, desc).unwrap();
                assert_eq!(rows_of(&g), rows_of(&e), "{tag}: topn({k}, desc={desc})");
            }

            // Joins: encoded left tail against an encoded right head, raw
            // twin against the raw twin; pair order must match exactly.
            let m = (n / 2).max(1);
            let rtail = random_column(&mut rng, AtomType::Int, m);
            let g = ops::join(&ctx, &eb, &Bat::new(et.slice(0, m), rtail.clone())).unwrap();
            let e = ops::join(&ctx, &rb, &Bat::new(rt.slice(0, m), rtail.clone())).unwrap();
            assert_eq!(rows_of(&g), rows_of(&e), "{tag}: join");
            let g = ops::semijoin(
                &ctx,
                &Bat::new(et.clone(), head.clone()),
                &Bat::new(et.slice(0, m), rtail.clone()),
            )
            .unwrap();
            let e = ops::semijoin(
                &ctx,
                &Bat::new(rt.clone(), head.clone()),
                &Bat::new(rt.slice(0, m), rtail.clone()),
            )
            .unwrap();
            assert_eq!(rows_of(&g), rows_of(&e), "{tag}: semijoin encoded heads");

            // Aggregates: both shapes must agree value-for-value, including
            // on which inputs are type errors.
            for f in [ops::AggFunc::Count, ops::AggFunc::Sum, ops::AggFunc::Min, ops::AggFunc::Avg]
            {
                match (ops::set_aggregate(&ctx, f, &eb), ops::set_aggregate(&ctx, f, &rb)) {
                    (Ok(g), Ok(e)) => {
                        assert_eq!(rows_of(&g), rows_of(&e), "{tag}: {{{}}}", f.name())
                    }
                    (Err(_), Err(_)) => {}
                    (g, e) => panic!("{tag}: {{{}}} disagree on error: {g:?} vs {e:?}", f.name()),
                }
                match (ops::aggr_scalar(&ctx, &eb, f), ops::aggr_scalar(&ctx, &rb, f)) {
                    (Ok(g), Ok(e)) => assert_eq!(g, e, "{tag}: scalar {}", f.name()),
                    (Err(_), Err(_)) => {}
                    (g, e) => {
                        panic!("{tag}: scalar {} disagree on error: {g:?} vs {e:?}", f.name())
                    }
                }
            }
        }
    }
}

#[test]
fn encoded_multiplex_matches_raw() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x21);
    let ctx = ExecCtx::new();
    use ops::{MultArg, ScalarFunc as F};
    for case in 0..12 {
        let n = rng.gen_range(24..64usize);
        let head = random_column(&mut rng, AtomType::Oid, n);
        // FOR-encoded ints through the arithmetic fast paths.
        let (et, rt) = encoded_pair(&mut rng, AtomType::Int, n, false);
        let k = MultArg::Const(AtomValue::Int(rng.gen_range(-8..8)));
        for f in [F::Add, F::Mul, F::Eq, F::Lt] {
            let g = ops::multiplex(
                &ctx,
                f,
                &[MultArg::Bat(Bat::new(head.clone(), et.clone())), k.clone()],
            );
            let e = ops::multiplex(
                &ctx,
                f,
                &[MultArg::Bat(Bat::new(head.clone(), rt.clone())), k.clone()],
            );
            assert_eq!(
                rows_of(&g.unwrap()),
                rows_of(&e.unwrap()),
                "case {case}: [{f:?}] over FOR int"
            );
        }
        // Dict strings through the per-dictionary-entry predicate path.
        let (et, rt) = encoded_pair(&mut rng, AtomType::Str, n, false);
        for (f, pat) in
            [(F::StrPrefix, "Clerk#"), (F::StrContains, "0000002"), (F::StrPrefix, "zz")]
        {
            let p = MultArg::Const(AtomValue::str(pat));
            let g = ops::multiplex(
                &ctx,
                f,
                &[MultArg::Bat(Bat::new(head.clone(), et.clone())), p.clone()],
            );
            let e = ops::multiplex(
                &ctx,
                f,
                &[MultArg::Bat(Bat::new(head.clone(), rt.clone())), p.clone()],
            );
            assert_eq!(
                rows_of(&g.unwrap()),
                rows_of(&e.unwrap()),
                "case {case}: [{f:?}({pat})] over dict str"
            );
        }
    }
}

#[test]
fn typed_hashindex_finds_all_positions() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x19);
    for &ty in ALL_TYPES {
        for _ in 0..6 {
            let n = rng.gen_range(0..40usize);
            let col = random_column(&mut rng, ty, n);
            let idx = monet::accel::hash::HashIndex::build(&col);
            for probe in 0..n {
                let mut hits: Vec<usize> = idx
                    .candidates(col.hash_at(probe))
                    .filter(|&p| col.eq_at(p, &col, probe))
                    .collect();
                hits.sort_unstable();
                let expect: Vec<usize> = (0..n).filter(|&p| col.eq_at(p, &col, probe)).collect();
                assert_eq!(hits, expect, "{ty}: hash index probe {probe}");
            }
        }
    }
}

/// RLE-dbl aggregates must be bit-identical to the raw twin *without*
/// materializing the full decoded column: the scalar sum and average
/// (scratch-buffered window decode) leave the shared decode cache cold.
/// A regression here silently doubles the live set of every aggregate
/// over run-length doubles.
#[test]
fn rle_dbl_aggregates_avoid_full_decode_and_match_raw() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x22);
    let ctx = ExecCtx::new();
    for case in 0..6 {
        let n = rng.gen_range(32..96usize);
        let (et, rt) = encoded_pair(&mut rng, AtomType::Dbl, n, true);
        assert_eq!(et.encoding(), Enc::Rle, "case {case}: fixture must be RLE");
        let head = random_column(&mut rng, AtomType::Oid, n);
        let eb = Bat::new(head.clone(), et.clone());
        let rb = Bat::new(head, rt);

        // Staged scalar aggregates: encoded vs raw, value-for-value.
        for f in [ops::AggFunc::Sum, ops::AggFunc::Avg] {
            let g = ops::aggr_scalar(&ctx, &eb, f).unwrap();
            let e = ops::aggr_scalar(&ctx, &rb, f).unwrap();
            assert_eq!(g, e, "case {case}: staged {}", f.name());
        }

        // The point of the window paths: nothing above may have populated
        // the full-column decode cache.
        assert_eq!(
            et.rle_decode_cached(),
            Some(false),
            "case {case}: aggregation decoded the full RLE column",
        );

        // Min/max take the generic typed path (which *may* decode); they
        // still must agree with the raw twin bit-for-bit.
        for f in [ops::AggFunc::Min, ops::AggFunc::Max] {
            let g = ops::aggr_scalar(&ctx, &eb, f).unwrap();
            let e = ops::aggr_scalar(&ctx, &rb, f).unwrap();
            assert_eq!(g, e, "case {case}: staged {}", f.name());
        }
    }
}
