//! Chained hash index over one column of a BAT, and the key index every
//! probing kernel builds through.
//!
//! [`HashIndex`] plays the role of the persistent `hash-table` heap of
//! Figure 2: the presence of a hash table on an operand "might lead the
//! join to choose a hashjoin implementation" (Section 5.2.1).
//!
//! [`KeyIndex`] is the one place that picks the layout of the ad hoc index
//! a kernel builds over its key column (the `hash` join, semijoin and
//! antijoin, aligned multiplex and `group2`'s alignment). A persistent
//! accelerator is reused when present. Otherwise oid keys whose value span
//! is at most `DIRECT_SPAN_PER_ROW` times the build plus probe rows get a
//! *direct table*: the same chain layout, with the bucket of oid `v` at
//! `v - lo` instead of at its hash. A class extent's oids are such keys. The
//! direct table is a collision-free hash table: its candidates need no
//! re-check, and they come out in the same order as a chain walk over equal
//! values. Everything else gets a chained [`HashIndex`].

use std::sync::Arc;

use crate::atom::Oid;
use crate::bat::Bat;
use crate::column::Column;
use crate::typed::TypedVals;

const EMPTY: u32 = u32::MAX;

/// Oid keys get a direct table when their value span is at most this many
/// slots per build and probe row. A 4-byte slot per 8-byte key keeps the
/// table at most twice the operands' key bytes. A fixed constant, not a
/// setting.
pub(crate) const DIRECT_SPAN_PER_ROW: u64 = 4;

/// Bucket-chained hash index: `buckets[h & mask]` holds the first position
/// of the chain, `next[pos]` the following one. Collisions are resolved by
/// the caller re-checking value equality (hashes of equal values are equal;
/// distinct values may share a bucket).
#[derive(Debug)]
pub struct HashIndex {
    mask: u64,
    buckets: Vec<u32>,
    next: Vec<u32>,
}

impl HashIndex {
    /// Build over all values of the column window. One typed dispatch, then
    /// a monomorphic hash-and-chain loop.
    pub fn build(col: &Column) -> HashIndex {
        let n = col.len();
        let nbuckets = (n.max(1) * 2).next_power_of_two();
        let mask = (nbuckets - 1) as u64;
        let mut buckets = vec![EMPTY; nbuckets];
        let mut next = vec![EMPTY; n];
        crate::for_each_typed!(col, |t| {
            for i in 0..n {
                let b = (t.hash_one(t.value(i)) & mask) as usize;
                next[i] = buckets[b];
                buckets[b] = i as u32;
            }
        });
        HashIndex { mask, buckets, next }
    }

    /// Iterate candidate positions whose values hash into the same bucket
    /// as `hash` (most recently inserted first).
    pub fn candidates(&self, hash: u64) -> Candidates<'_> {
        Candidates { next: &self.next, cur: self.buckets[(hash & self.mask) as usize] }
    }

    /// Approximate memory footprint in bytes (for accounting).
    pub fn bytes(&self) -> usize {
        (self.buckets.len() + self.next.len()) * std::mem::size_of::<u32>()
    }
}

/// `(min, max)` of an oid-like column; `None` for other types and for an
/// empty column.
pub(crate) fn oid_bounds(col: &Column) -> Option<(Oid, Oid)> {
    if !col.is_oidlike() || col.is_empty() {
        return None;
    }
    if let Some(seq) = col.void_seq() {
        return Some((seq, seq + (col.len() - 1) as Oid));
    }
    let v = col.as_oid_slice()?;
    Some(v.iter().fold((Oid::MAX, 0), |(lo, hi), &x| (lo.min(x), hi.max(x))))
}

/// The index a probing kernel looks its key column up in. Kernels get one
/// from [`KeyIndex::on_head`] or [`KeyIndex::build`], which pick the layout
/// (see the module docs).
pub enum KeyIndex {
    /// Narrow oid span: the bucket of oid `v` is `first[v - lo]`.
    Direct(DirectTable),
    /// A persistent accelerator, or an ad hoc chained table.
    Chained(Arc<HashIndex>),
}

impl KeyIndex {
    /// Index over `b`'s head for `probe_rows` lookups: its persistent
    /// `head_hash` when present, else [`KeyIndex::build`].
    pub fn on_head(b: &Bat, probe_rows: usize) -> KeyIndex {
        match &b.accel().head_hash {
            Some(h) => KeyIndex::Chained(Arc::clone(h)),
            None => KeyIndex::build(b.head(), probe_rows),
        }
    }

    /// Ad hoc index over `keys` for `probe_rows` lookups: a direct table
    /// for oid keys whose span is at most `DIRECT_SPAN_PER_ROW` x (build +
    /// probe rows), a chained [`HashIndex`] otherwise.
    pub fn build(keys: &Column, probe_rows: usize) -> KeyIndex {
        let rows = (keys.len() + probe_rows) as u64;
        match oid_bounds(keys) {
            Some((lo, hi)) if hi - lo < DIRECT_SPAN_PER_ROW * rows => {
                KeyIndex::Direct(DirectTable::build(keys, lo, (hi - lo) as usize + 1))
            }
            _ => KeyIndex::Chained(Arc::new(HashIndex::build(keys))),
        }
    }

    /// Positions of the indexed column (`keys`, typed) whose value equals
    /// the probe value `v` of the typed window `probe`, most recently
    /// inserted first. A direct table yields only equal values; chained
    /// candidates are re-checked against `keys`.
    #[inline]
    pub fn matches<'a, P, K>(
        &'a self,
        probe: P,
        keys: K,
        v: P::Elem,
    ) -> impl Iterator<Item = usize> + 'a
    where
        P: TypedVals,
        K: TypedVals<Elem = P::Elem> + 'a,
        P::Elem: 'a,
    {
        let (candidates, exact) = match self {
            KeyIndex::Direct(d) => {
                (d.candidates(probe.as_oid(v).expect("direct tables hold oid keys")), true)
            }
            KeyIndex::Chained(h) => (h.candidates(probe.hash_one(v)), false),
        };
        candidates.filter(move |&p| exact || keys.eq_one(keys.value(p), v))
    }
}

/// Direct-addressed chains over oid keys in `lo..lo + first.len()`:
/// `first[v - lo]` holds the last position with value `v`, `next[pos]` the
/// previous one. Both buffers come from the scratch pool and go back when
/// the table drops, on every exit path.
pub struct DirectTable {
    lo: Oid,
    first: Vec<u32>,
    next: Vec<u32>,
}

impl DirectTable {
    fn build(keys: &Column, lo: Oid, span: usize) -> DirectTable {
        let mut first = crate::typed::take_u32(span);
        first.resize(span, EMPTY);
        let mut next = crate::typed::take_u32(keys.len());
        crate::for_each_oidlike!(keys, |t| {
            for i in 0..t.len() {
                let slot = &mut first[(t.value(i) - lo) as usize];
                next.push(*slot);
                *slot = i as u32;
            }
        });
        DirectTable { lo, first, next }
    }

    #[inline]
    fn candidates(&self, v: Oid) -> Candidates<'_> {
        let k = v.wrapping_sub(self.lo);
        let cur = if k < self.first.len() as u64 { self.first[k as usize] } else { EMPTY };
        Candidates { next: &self.next, cur }
    }
}

impl Drop for DirectTable {
    fn drop(&mut self) {
        crate::typed::put_u32(std::mem::take(&mut self.first));
        crate::typed::put_u32(std::mem::take(&mut self.next));
    }
}

/// Iterator over one hash chain.
pub struct Candidates<'a> {
    next: &'a [u32],
    cur: u32,
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.cur == EMPTY {
            return None;
        }
        let pos = self.cur as usize;
        self.cur = self.next[pos];
        Some(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_all_duplicates() {
        let col = Column::from_ints(vec![5, 7, 5, 9, 5]);
        let idx = HashIndex::build(&col);
        let h = col.hash_at(0);
        let mut hits: Vec<usize> = idx.candidates(h).filter(|&p| col.int_at(p) == 5).collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 2, 4]);
    }

    #[test]
    fn absent_value_yields_no_verified_hits() {
        let col = Column::from_ints(vec![1, 2, 3]);
        let idx = HashIndex::build(&col);
        let probe = Column::from_ints(vec![42]);
        let hits: Vec<usize> =
            idx.candidates(probe.hash_at(0)).filter(|&p| col.eq_at(p, &probe, 0)).collect();
        assert!(hits.is_empty());
    }

    #[test]
    fn works_on_strings() {
        let col = Column::from_strs(["x", "y", "x", "z"]);
        let idx = HashIndex::build(&col);
        let probe = Column::from_strs(["x"]);
        let mut hits: Vec<usize> =
            idx.candidates(probe.hash_at(0)).filter(|&p| col.eq_at(p, &probe, 0)).collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 2]);
    }

    #[test]
    fn empty_column() {
        let col = Column::from_ints(vec![]);
        let idx = HashIndex::build(&col);
        assert_eq!(idx.candidates(12345).count(), 0);
    }

    /// Positions of `v` in `keys`, through `idx`.
    fn hits(idx: &KeyIndex, keys: &Column, v: Oid) -> Vec<usize> {
        crate::for_each_oidlike!(keys, |k| idx.matches(&[v][..], k, v).collect())
    }

    #[test]
    fn narrow_oid_span_gets_a_direct_table_in_chain_order() {
        let keys = Column::from_oids(vec![105, 101, 105, 103, 105]);
        let direct = KeyIndex::build(&keys, 0);
        assert!(matches!(direct, KeyIndex::Direct(_)));
        let chained = KeyIndex::Chained(Arc::new(HashIndex::build(&keys)));
        for v in [99, 100, 101, 102, 103, 104, 105, 106, u64::MAX] {
            assert_eq!(hits(&direct, &keys, v), hits(&chained, &keys, v), "oid {v}");
        }
        assert_eq!(hits(&direct, &keys, 105), vec![4, 2, 0], "newest first");
        // Void keys are a span of their own length.
        let void = Column::void(1 << 40, 3);
        assert!(matches!(KeyIndex::build(&void, 0), KeyIndex::Direct(_)));
        assert_eq!(hits(&KeyIndex::build(&void, 0), &void, (1 << 40) + 2), vec![2]);
    }

    #[test]
    fn span_bound_counts_build_and_probe_rows() {
        // Span 4 x rows is the largest direct one: 8 over 2 keys alone,
        // 9 only once a probe row raises the bound to 12.
        assert!(matches!(
            KeyIndex::build(&Column::from_oids(vec![10, 17]), 0),
            KeyIndex::Direct(_)
        ));
        let keys = Column::from_oids(vec![10, 18]);
        assert!(matches!(KeyIndex::build(&keys, 0), KeyIndex::Chained(_)));
        assert!(matches!(KeyIndex::build(&keys, 1), KeyIndex::Direct(_)));
        // The widest span cannot overflow the bound.
        let wide = Column::from_oids(vec![0, u64::MAX]);
        assert!(matches!(KeyIndex::build(&wide, 1000), KeyIndex::Chained(_)));
    }

    #[test]
    fn non_oid_and_empty_keys_stay_chained() {
        let ints = Column::from_ints(vec![1, 2, 3]);
        let idx = KeyIndex::build(&ints, 100);
        assert!(matches!(idx, KeyIndex::Chained(_)));
        assert!(matches!(KeyIndex::build(&Column::from_oids(vec![]), 5), KeyIndex::Chained(_)));
    }

    #[test]
    fn persistent_head_hash_is_reused() {
        let keys = Column::from_oids(vec![3, 1, 2]);
        let mut b = Bat::new(keys.clone(), Column::void(0, 3));
        assert!(matches!(KeyIndex::on_head(&b, 3), KeyIndex::Direct(_)));
        let persistent = Arc::new(HashIndex::build(&keys));
        b.set_head_hash(Arc::clone(&persistent));
        match KeyIndex::on_head(&b, 3) {
            KeyIndex::Chained(h) => assert!(Arc::ptr_eq(&h, &persistent)),
            KeyIndex::Direct(_) => panic!("persistent accelerator ignored"),
        }
    }

    #[test]
    fn direct_table_returns_its_scratch_to_the_pool() {
        let idx = KeyIndex::build(&Column::from_oids((0..5000).collect()), 0);
        assert!(matches!(idx, KeyIndex::Direct(_)));
        drop(idx);
        // The pool is per thread: the next checkout here gets the table back.
        let v = crate::typed::take_u32(0);
        assert!(v.capacity() >= 5000);
        crate::typed::put_u32(v);
    }
}
