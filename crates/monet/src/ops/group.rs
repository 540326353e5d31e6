//! Grouping: `AB.group` and `AB.group(CD)` of Figure 4.
//!
//! The `group` operation introduces new oids for uniquely occurring values
//! in a BAT column: `{a·o_b | ab ∈ AB ∧ o_b = unique_oid(b)}`. Groupings on
//! one attribute use the unary version; multi-attribute groupings follow up
//! with binary `group` invocations until all attributes are processed —
//! this is how SQL `GROUP BY` and MOA `nest` are implemented.
//!
//! Hash grouping uses the presized bucket-chained [`GroupTable`] (the same
//! layout as `accel::hash::HashIndex`) inside a monomorphized typed loop —
//! no per-row type dispatch, no per-bucket allocations.

use std::time::Instant;

use crate::atom::Oid;
use crate::bat::Bat;
use crate::column::Column;
use crate::ctx::ExecCtx;
use crate::error::{MonetError, Result};
use crate::pager;
use crate::props::{ColProps, Props};
use crate::typed::{GroupTable, TypedVals};

/// First-occurrence hash grouping of one column: `(gid per row, one
/// representative row per group)`, gids dense in order of first
/// appearance. This is the shared core of `group1` and the hash path of
/// `set_aggregate`.
///
/// With `threads > 1` the rows are grouped morsel-parallel with one
/// per-worker [`GroupTable`] per morsel (buffers from the bounded
/// thread-local scratch pool), then merged by a final serial pass: each
/// morsel's representatives are folded into a global table **in morsel
/// order**, which reproduces the serial first-occurrence numbering
/// exactly — a value's global representative is its first row in the
/// first morsel that contains it, i.e. its globally first row. The
/// per-morsel gids are then relabeled through the local→global map and
/// concatenated in morsel order, so the output is bit-identical to the
/// serial single-table pass at every thread count.
pub(crate) fn hash_group_column(
    ctx: &ExecCtx,
    col: &Column,
    threads: usize,
) -> Result<(Vec<u32>, Vec<u32>, &'static str)> {
    let n = col.len();
    if crate::costmodel::group_prefers_spill(&ctx.mem, n) {
        // Out-of-core partition-then-process shape (see the function
        // docs): resource decision only, the numbering is identical.
        return spill_group_column(ctx, col);
    }
    if threads <= 1 {
        // Dictionary-encoded tails group by *code*: the dictionary is
        // duplicate-free, so code equality is value equality and a flat
        // code→gid table replaces hashing entirely. Gids are still
        // assigned at first appearance, so the output is bit-identical to
        // the hash path. Gated on the code domain staying proportionate to
        // the input (a huge dictionary over few rows would pay more for
        // the table fill than the hashes it saves). The parallel path
        // keeps the generic per-morsel tables — its merge pass needs
        // value-keyed tables anyway and morsel results must stay
        // label-compatible.
        if let crate::typed::TypedSlice::DictStr(d) = col.typed() {
            if d.dict_len() <= (4 * n).max(1 << 16) {
                let (gid_of, reps) = dict_group_codes(d);
                return Ok((gid_of, reps, "code-group"));
            }
        }
        return Ok(crate::for_each_typed!(col, |t| {
            let mut table = GroupTable::with_capacity(n);
            let mut gid_of: Vec<u32> = Vec::with_capacity(n);
            for i in 0..n {
                let v = t.value(i);
                let h = t.hash_one(v);
                let (g, _) =
                    table.find_or_insert(h, i as u32, |rep| t.eq_one(t.value(rep as usize), v));
                gid_of.push(g);
            }
            (gid_of, table.reps().to_vec(), "hash")
        }));
    }
    let c = col.clone();
    let parts: Vec<(Vec<u32>, Vec<u32>)> =
        crate::par::try_for_each_morsel(&ctx.gov, n, threads, move |r| {
            crate::for_each_typed!(&c, |t| {
                let mut table = GroupTable::pooled(r.len());
                let mut lgids: Vec<u32> = Vec::with_capacity(r.len());
                for i in r {
                    let v = t.value(i);
                    let h = t.hash_one(v);
                    let (g, _) =
                        table.find_or_insert(h, i as u32, |rep| t.eq_one(t.value(rep as usize), v));
                    lgids.push(g);
                }
                let reps = table.reps().to_vec();
                table.recycle();
                (lgids, reps)
            })
        })?;
    Ok(crate::for_each_typed!(col, |t| {
        let est: usize = parts.iter().map(|p| p.1.len()).sum();
        let mut table = GroupTable::with_capacity(est);
        let mut maps: Vec<Vec<u32>> = Vec::with_capacity(parts.len());
        for (_, reps) in &parts {
            let mut map = Vec::with_capacity(reps.len());
            for &rep in reps {
                let v = t.value(rep as usize);
                let h = t.hash_one(v);
                let (g, _) = table.find_or_insert(h, rep, |rr| t.eq_one(t.value(rr as usize), v));
                map.push(g);
            }
            maps.push(map);
        }
        let mut gid_of: Vec<u32> = Vec::with_capacity(n);
        for ((lgids, _), map) in parts.iter().zip(&maps) {
            gid_of.extend(lgids.iter().map(|&lg| map[lg as usize]));
        }
        (gid_of, table.reps().to_vec(), "par-hash")
    }))
}

/// Out-of-core first-occurrence grouping: hash-cluster the rows into
/// per-cluster regions of a spill file ([`crate::spill::SpilledClusters`]),
/// group each cluster alone with a cluster-sized [`GroupTable`], then
/// renumber the per-cluster provisional gids globally. Only one cluster's
/// table is ever resident, so the transient working set is bounded by the
/// largest cluster.
///
/// The renumbering reproduces the serial first-occurrence numbering
/// exactly: all rows of a value hash to the same cluster, so groups are
/// disjoint across clusters and each provisional representative (the
/// first row of its value within the cluster, in ascending row order
/// preserved by the stable clustering) is the value's globally first
/// row. Sorting the representatives by row position therefore ranks the
/// groups in order of first appearance.
fn spill_group_column(ctx: &ExecCtx, col: &Column) -> Result<(Vec<u32>, Vec<u32>, &'static str)> {
    let n = col.len();
    let bits = crate::typed::radix_bits(n);
    let mut gid_of: Vec<u32> = vec![0; n];
    // Representative row per provisional (cluster-local, then offset)
    // group id, appended cluster by cluster.
    let mut prov_reps: Vec<u32> = Vec::new();
    let r: Result<()> = crate::for_each_typed!(col, |t| {
        let sc = crate::spill::SpilledClusters::build(ctx, t, bits)?;
        let mut buf: Vec<u64> = Vec::new();
        for c in 0..sc.num_clusters() {
            if sc.cluster_len(c) == 0 {
                continue;
            }
            sc.read_cluster(ctx, c, &mut buf)?;
            let base = prov_reps.len() as u32;
            let mut table = GroupTable::pooled(buf.len());
            for &p in &buf {
                let i = crate::typed::pair_pos(p) as usize;
                let v = t.value(i);
                let h = t.hash_one(v);
                let (g, _) =
                    table.find_or_insert(h, i as u32, |rep| t.eq_one(t.value(rep as usize), v));
                gid_of[i] = base + g;
            }
            prov_reps.extend_from_slice(table.reps());
            table.recycle();
        }
        Ok(())
    });
    r?;
    let mut order: Vec<u32> = (0..prov_reps.len() as u32).collect();
    order.sort_unstable_by_key(|&g| prov_reps[g as usize]);
    let mut new_gid: Vec<u32> = vec![0; order.len()];
    let mut reps: Vec<u32> = Vec::with_capacity(order.len());
    for (rank, &g) in order.iter().enumerate() {
        new_gid[g as usize] = rank as u32;
        reps.push(prov_reps[g as usize]);
    }
    for g in gid_of.iter_mut() {
        *g = new_gid[*g as usize];
    }
    Ok((gid_of, reps, "spill"))
}

/// First-occurrence grouping over dictionary codes with a flat code→gid
/// table (see the dispatch comment in [`hash_group_column`]). The slot
/// table comes from the bounded thread-local scratch pool; there is no
/// abort point between checkout and return.
fn dict_group_codes(d: crate::typed::DictStrVals<'_>) -> (Vec<u32>, Vec<u32>) {
    const EMPTY: u32 = u32::MAX;
    let codes = d.codes();
    let mut slot = crate::typed::take_u32(d.dict_len());
    slot.resize(d.dict_len(), EMPTY);
    let mut gid_of: Vec<u32> = Vec::with_capacity(codes.len());
    let mut reps: Vec<u32> = Vec::new();
    for i in 0..codes.len() {
        let s = &mut slot[codes.get(i) as usize];
        if *s == EMPTY {
            *s = reps.len() as u32;
            reps.push(i as u32);
        }
        gid_of.push(*s);
    }
    crate::typed::put_u32(slot);
    (gid_of, reps)
}

/// Unary group: one new oid per distinct tail value. Group oids are dense,
/// assigned in order of first appearance (or value order when the tail is
/// sorted). The result head *shares* the operand's head column, so it is
/// synced with the operand.
pub fn group1(ctx: &ExecCtx, ab: &Bat) -> Result<Bat> {
    ctx.probe("op/group")?;
    let started = Instant::now();
    let faults0 = ctx.faults();
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.tail());
    }
    let sorted = ab.props().tail.sorted;
    let threads = if sorted { 1 } else { super::par_threads(ctx, ab.len()) };
    let (mut gids, ngroups, algo): (Vec<Oid>, usize, &'static str) = if sorted {
        crate::for_each_typed!(ab.tail(), |t| {
            let n = t.len();
            let mut gids: Vec<Oid> = Vec::with_capacity(n);
            // Merge grouping: adjacent comparison; ids ascend with values.
            let mut g: Oid = 0;
            for i in 0..n {
                if i > 0 && !t.eq_one(t.value(i), t.value(i - 1)) {
                    g += 1;
                }
                gids.push(g);
            }
            let ngroups = if n == 0 { 0 } else { g as usize + 1 };
            (gids, ngroups, "merge")
        })
    } else {
        let (gid_of, rep, algo) = hash_group_column(ctx, ab.tail(), threads)?;
        (gid_of.into_iter().map(|g| g as Oid).collect(), rep.len(), algo)
    };
    let base = ctx.fresh_oids(ngroups);
    for g in &mut gids {
        *g += base;
    }
    let result = Bat::with_props(
        ab.head().clone(),
        Column::from_oids(gids),
        Props::new(
            ab.props().head,
            ColProps { sorted, key: false, dense: false, ..ColProps::NONE },
        ),
    );
    ctx.record("group", algo, started, faults0, &result)?;
    Ok(result)
}

/// Binary (refining) group: `{a·o_bd | ab ∈ AB ∧ cd ∈ CD ∧ a = c ∧
/// o_bd = unique_oid(b, d)}`. `AB` is typically the group BAT of a previous
/// `group` and `CD` the next grouping attribute. The fast path requires the
/// operands to be synced; otherwise `CD` must have a key head and is
/// aligned through a [`crate::accel::hash::KeyIndex`] over its head (a
/// direct table for narrow oid heads, else a hash table).
pub fn group2(ctx: &ExecCtx, ab: &Bat, cd: &Bat) -> Result<Bat> {
    ctx.probe("op/group")?;
    let started = Instant::now();
    let faults0 = ctx.faults();
    if let Some(p) = ctx.pager.as_deref() {
        pager::touch_scan(p, ab.tail());
        pager::touch_scan(p, cd.tail());
    }
    // Align: position i of AB corresponds to position align[i] of CD.
    let (align, algo): (Vec<u32>, &'static str) = if ab.synced(cd) {
        ((0..ab.len() as u32).collect(), "sync")
    } else {
        let idx = crate::accel::hash::KeyIndex::on_head(cd, ab.len());
        let align: std::result::Result<Vec<u32>, usize> =
            crate::for_each_typed2!(ab.head(), cd.head(), |ah, ch| {
                'align: {
                    let mut align = Vec::with_capacity(ab.len());
                    for i in 0..ah.len() {
                        match idx.matches(ah, ch, ah.value(i)).next() {
                            Some(p) => align.push(p as u32),
                            None => break 'align Err(i),
                        }
                    }
                    Ok(align)
                }
            });
        match align {
            Ok(a) => (a, "hash-align"),
            Err(i) => {
                return Err(MonetError::Malformed {
                    op: "group",
                    detail: format!(
                        "binary group: head value at position {i} of the group \
                         BAT has no counterpart in the attribute BAT"
                    ),
                })
            }
        }
    };
    // Pair grouping over (b, d): nested typed dispatch monomorphizes the
    // loop for every tail-type combination.
    let (mut gids, ngroups): (Vec<Oid>, usize) = crate::for_each_typed!(ab.tail(), |bt| {
        crate::for_each_typed!(cd.tail(), |dt| {
            let n = bt.len();
            let mut table = GroupTable::with_capacity(n);
            let mut gids: Vec<Oid> = Vec::with_capacity(n);
            for i in 0..n {
                let j = align[i] as usize;
                let bv = bt.value(i);
                let dv = dt.value(j);
                let h = bt.hash_one(bv).rotate_left(23) ^ dt.hash_one(dv);
                let (g, _) = table.find_or_insert(h, i as u32, |rep| {
                    let k = rep as usize;
                    bt.eq_one(bt.value(k), bv) && dt.eq_one(dt.value(align[k] as usize), dv)
                });
                gids.push(g as Oid);
            }
            let ngroups = table.len();
            (gids, ngroups)
        })
    });
    let base = ctx.fresh_oids(ngroups);
    for g in &mut gids {
        *g += base;
    }
    let result = Bat::with_props(
        ab.head().clone(),
        Column::from_oids(gids),
        Props::new(ab.props().head, ColProps::NONE),
    );
    ctx.record("group", algo, started, faults0, &result)?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_group_assigns_one_oid_per_value() {
        let ctx = ExecCtx::new();
        let years = Bat::new(
            Column::from_oids(vec![1, 2, 3, 4, 5]),
            Column::from_ints(vec![1995, 1996, 1995, 1997, 1996]),
        );
        let class = group1(&ctx, &years).unwrap();
        assert_eq!(class.len(), 5);
        assert!(class.synced(&years));
        let g = class.tail();
        assert_eq!(g.oid_at(0), g.oid_at(2)); // both 1995
        assert_eq!(g.oid_at(1), g.oid_at(4)); // both 1996
        assert_ne!(g.oid_at(0), g.oid_at(1));
        assert_ne!(g.oid_at(3), g.oid_at(0));
        // dense fresh oids: 3 distinct
        let mut distinct: Vec<Oid> = (0..5).map(|i| g.oid_at(i)).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 3);
        assert_eq!(distinct[2] - distinct[0], 2);
    }

    #[test]
    fn merge_group_on_sorted_tail() {
        let ctx = ExecCtx::new().with_trace();
        let b = Bat::with_props(
            Column::from_oids(vec![9, 8, 7]),
            Column::from_ints(vec![1, 1, 2]),
            Props::new(ColProps::NONE, ColProps::SORTED),
        );
        let r = group1(&ctx, &b).unwrap();
        assert_eq!(ctx.take_trace()[0].algo, "merge");
        assert!(r.props().tail.sorted);
        assert_eq!(r.tail().oid_at(0), r.tail().oid_at(1));
        assert_eq!(r.tail().oid_at(2), r.tail().oid_at(0) + 1);
    }

    #[test]
    fn binary_group_refines_synced() {
        let ctx = ExecCtx::new();
        // group by (flag, status): Q1-style two-attribute grouping
        let head = Column::from_oids(vec![1, 2, 3, 4]);
        let flag = Bat::new(head.clone(), Column::from_chrs(vec![b'A', b'A', b'R', b'A']));
        let status = Bat::new(head, Column::from_chrs(vec![b'F', b'O', b'F', b'F']));
        let g1 = group1(&ctx, &flag).unwrap();
        let g2 = group2(&ctx, &g1, &status).unwrap();
        let g = g2.tail();
        // (A,F) at 0 and 3; (A,O) at 1; (R,F) at 2
        assert_eq!(g.oid_at(0), g.oid_at(3));
        assert_ne!(g.oid_at(0), g.oid_at(1));
        assert_ne!(g.oid_at(0), g.oid_at(2));
        assert_ne!(g.oid_at(1), g.oid_at(2));
    }

    #[test]
    fn binary_group_hash_align() {
        let ctx = ExecCtx::new();
        let g1 = Bat::new(Column::from_oids(vec![4, 2, 3]), Column::from_oids(vec![100, 100, 101]));
        let attr = Bat::new(Column::from_oids(vec![2, 3, 4]), Column::from_ints(vec![7, 7, 8]));
        let r = group2(&ctx, &g1, &attr).unwrap();
        let g = r.tail();
        // rows: (100,8)@4, (100,7)@2, (101,7)@3 => all distinct
        assert_ne!(g.oid_at(0), g.oid_at(1));
        assert_ne!(g.oid_at(1), g.oid_at(2));
    }

    #[test]
    fn binary_group_missing_head_errors() {
        let ctx = ExecCtx::new();
        let g1 = Bat::new(Column::from_oids(vec![1]), Column::from_oids(vec![100]));
        let attr = Bat::new(Column::from_oids(vec![2]), Column::from_ints(vec![7]));
        assert!(group2(&ctx, &g1, &attr).is_err());
    }

    #[test]
    fn group_on_strings() {
        let ctx = ExecCtx::new();
        let b = Bat::new(
            Column::from_oids(vec![1, 2, 3]),
            Column::from_strs(["EUROPE", "ASIA", "EUROPE"]),
        );
        let r = group1(&ctx, &b).unwrap();
        assert_eq!(r.tail().oid_at(0), r.tail().oid_at(2));
        assert_ne!(r.tail().oid_at(0), r.tail().oid_at(1));
    }

    #[test]
    fn spill_grouping_matches_in_memory_numbering() {
        let ctx = ExecCtx::new();
        // Values spread across many clusters with skewed repetition; also
        // an encoded (dict) string column, which in-memory grouping sends
        // through the code-group fast path.
        let ints = Column::from_ints((0..5000).map(|i| ((i * 31) % 613) as i32).collect());
        let strs = Column::from_strs((0..3000).map(|i| format!("g{}", i % 97)).collect::<Vec<_>>());
        let dict = strs.encode(false);
        assert_eq!(dict.encoding(), crate::props::Enc::Dict);
        for col in [&ints, &strs, &dict] {
            let (gid_mem, reps_mem, _) = hash_group_column(&ctx, col, 1).unwrap();
            let (gid_sp, reps_sp, algo) = spill_group_column(&ctx, col).unwrap();
            assert_eq!(algo, "spill");
            assert_eq!(gid_mem, gid_sp, "gids diverge on {}", col.atom_type());
            assert_eq!(reps_mem, reps_sp, "reps diverge on {}", col.atom_type());
        }
        // Empty input.
        let (gid, reps, _) = spill_group_column(&ctx, &Column::from_ints(vec![])).unwrap();
        assert!(gid.is_empty() && reps.is_empty());
    }

    #[test]
    fn group_dispatches_to_spill_under_budget_pressure() {
        let ctx = ExecCtx::new().with_trace();
        let b = Bat::new(
            Column::from_oids((0..4000).collect()),
            Column::from_ints((0..4000).map(|i| (i % 800) as i32).collect()),
        );
        let a = group1(&ctx, &b).unwrap();
        assert_ne!(ctx.take_trace()[0].algo, "spill");
        // Budget below the GroupTable estimate but above the result
        // charge (the gid column is the output either way).
        ctx.mem.begin();
        ctx.mem.set_budget(Some(crate::costmodel::group_inmem_bytes(b.len()) - 1));
        let s = group1(&ctx, &b).unwrap();
        assert_eq!(ctx.take_trace()[0].algo, "spill");
        // Same grouping structure: gids are fresh oids per call, so
        // compare the induced partition, not the raw oids.
        let rel = |g: &Bat, i: usize| g.tail().oid_at(i) - g.tail().oid_at(0);
        for i in 0..b.len() {
            assert_eq!(rel(&a, i), rel(&s, i), "partition diverges at {i}");
        }
    }

    #[test]
    fn empty_group() {
        let ctx = ExecCtx::new();
        let b = Bat::new(Column::from_oids(vec![]), Column::from_ints(vec![]));
        assert_eq!(group1(&ctx, &b).unwrap().len(), 0);
    }
}
