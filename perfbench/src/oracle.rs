//! The oracle gate: every statement the benchmark runs is compared with
//! the `relstore` reference plan (`Query::run_ref`) at eps 1e-6, the
//! tolerance `fig9_tpcd` uses. Reference results are computed outside the
//! timed region; a mismatch or an error counts as a failed statement.
//!
//! The SF 1 store is built once per checkout (it is the only time the
//! SF 1 rows exist), so its reference results are computed then and saved
//! next to the store in a small text format.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use monet::atom::{AtomValue, Date};
use relstore::RelDb;
use tpcd_queries::{all_queries, Params, Query, QueryResult};

use crate::params::Stmt;

pub const EPS: f64 = 1e-6;

/// Expected results by statement key.
pub struct Oracle {
    expected: HashMap<String, QueryResult>,
    /// Corrupt the first expected result (self-test of the gate).
    corrupt: bool,
}

impl Oracle {
    pub fn new(corrupt: bool) -> Oracle {
        Oracle { expected: HashMap::new(), corrupt }
    }

    pub fn insert(&mut self, key: String, mut rows: QueryResult) {
        if self.corrupt && self.expected.is_empty() {
            let extra = rows.0.first().cloned().unwrap_or_else(|| vec![AtomValue::Int(-1)]);
            rows.0.push(extra);
        }
        self.expected.insert(key, rows);
    }

    /// Compute the reference result of `stmt` unless already known.
    pub fn expect(&mut self, rel: &RelDb, queries: &[Query], stmt: &Stmt) {
        if !self.expected.contains_key(&stmt.key) {
            let rows = (queries[stmt.qi].run_ref)(rel, &stmt.params, None).rows;
            self.insert(stmt.key.clone(), rows);
        }
    }

    /// `Ok` when `got` matches the reference result of `key`.
    pub fn check(&self, key: &str, got: &Result<QueryResult, String>) -> Result<(), String> {
        let want = self.expected.get(key).ok_or_else(|| format!("{key}: no reference result"))?;
        match got {
            Ok(rows) if rows.approx_eq(want, EPS) => Ok(()),
            Ok(rows) => Err(format!(
                "{key}: result differs from the reference ({} rows vs {})\ngot:\n{}want:\n{}",
                rows.len(),
                want.len(),
                rows.preview(3),
                want.preview(3)
            )),
            Err(e) => Err(format!("{key}: {e}")),
        }
    }
}

/// Counts of checked statements, with the first few failure reasons.
#[derive(Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Verdict {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.reasons.len() < 5 {
                self.reasons.push(e);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Prepared store: store directory + saved reference results.
// ---------------------------------------------------------------------------

/// A persistent store built by [`ensure_store`], with its reference results.
pub struct PreparedStore {
    pub dir: PathBuf,
    pub expected: Vec<(String, QueryResult)>,
}

/// Return the store for `(sf, data_seed, store::VERSION)` under `work`,
/// building it (generate, load, save, reference results) when it is
/// missing. Stores of other keys are deleted: they are large and stale.
pub fn ensure_store(work: &Path, sf: f64, data_seed: u64) -> Result<PreparedStore, String> {
    let name = format!("store-sf{sf}-seed{data_seed}-v{}", monet::store::VERSION);
    let root = work.join(&name);
    let oracle_file = root.join("oracle.txt");
    if !oracle_file.exists() {
        std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
        if let Ok(entries) = std::fs::read_dir(work) {
            for e in entries.flatten() {
                let n = e.file_name().to_string_lossy().into_owned();
                if n.starts_with("store-") && n != name {
                    let _ = std::fs::remove_dir_all(e.path());
                }
            }
        }
        build_store(&root, sf, data_seed)?;
    }
    let text = std::fs::read_to_string(&oracle_file)
        .map_err(|e| format!("{}: {e}", oracle_file.display()))?;
    Ok(PreparedStore { dir: root.join("store"), expected: decode(&text)? })
}

fn build_store(root: &Path, sf: f64, data_seed: u64) -> Result<(), String> {
    let tmp = root.with_extension("partial");
    let _ = std::fs::remove_dir_all(&tmp);
    let t0 = Instant::now();
    let data = tpcd::generate(sf, data_seed);
    let (cat, _) = tpcd::load_bats(&data);
    tpcd::save_catalog(&tmp.join("store"), &cat, sf).map_err(|e| e.to_string())?;
    drop(cat);
    let rel = tpcd::load_rowstore(&data);
    let params = Params::for_sf(sf);
    let mut text = String::from("# perfbench reference results v1\n");
    for (qi, q) in all_queries().iter().enumerate() {
        let rows = (q.run_ref)(&rel, &params, None).rows;
        encode(&mut text, &Stmt::pinned(qi, &params).key, &rows);
    }
    std::fs::write(tmp.join("oracle.txt"), text).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(root);
    std::fs::rename(&tmp, root).map_err(|e| format!("{}: {e}", root.display()))?;
    eprintln!(
        "perfbench: built the SF {sf} store and its reference results in {:.1} s",
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\t', "\\t").replace('\n', "\\n").replace('\r', "\\r")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

fn encode(out: &mut String, key: &str, rows: &QueryResult) {
    let _ = writeln!(out, "key {}\nrows {}", escape(key), rows.len());
    for row in &rows.0 {
        let cells: Vec<String> = row
            .iter()
            .map(|v| match v {
                AtomValue::Void(o) => format!("v:{o}"),
                AtomValue::Oid(o) => format!("o:{o}"),
                AtomValue::Bool(b) => format!("b:{}", u8::from(*b)),
                AtomValue::Chr(c) => format!("c:{c}"),
                AtomValue::Int(i) => format!("i:{i}"),
                AtomValue::Lng(l) => format!("l:{l}"),
                AtomValue::Dbl(d) => format!("d:{d:?}"),
                AtomValue::Str(s) => format!("s:{}", escape(s)),
                AtomValue::Date(d) => format!("t:{}", d.0),
            })
            .collect();
        let _ = writeln!(out, "{}", cells.join("\t"));
    }
}

fn decode_cell(cell: &str) -> Result<AtomValue, String> {
    let bad = || format!("bad reference cell {cell:?}");
    let (tag, v) = cell.split_once(':').ok_or_else(bad)?;
    let num = |v: &str| v.parse::<i64>().map_err(|_| bad());
    Ok(match tag {
        "v" => AtomValue::Void(v.parse().map_err(|_| bad())?),
        "o" => AtomValue::Oid(v.parse().map_err(|_| bad())?),
        "b" => AtomValue::Bool(v == "1"),
        "c" => AtomValue::Chr(v.parse().map_err(|_| bad())?),
        "i" => AtomValue::Int(i32::try_from(num(v)?).map_err(|_| bad())?),
        "l" => AtomValue::Lng(num(v)?),
        "d" => AtomValue::Dbl(v.parse().map_err(|_| bad())?),
        "s" => AtomValue::str(unescape(v).as_str()),
        "t" => AtomValue::Date(Date(i32::try_from(num(v)?).map_err(|_| bad())?)),
        _ => return Err(bad()),
    })
}

fn decode(text: &str) -> Result<Vec<(String, QueryResult)>, String> {
    let mut out = Vec::new();
    let mut lines = text.lines().filter(|l| !l.starts_with('#'));
    while let Some(line) = lines.next() {
        let key = line.strip_prefix("key ").ok_or("reference file: expected a key line")?;
        let n: usize = lines
            .next()
            .and_then(|l| l.strip_prefix("rows "))
            .and_then(|n| n.parse().ok())
            .ok_or("reference file: expected a rows line")?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let row = lines.next().ok_or("reference file: truncated")?;
            let cells = if row.is_empty() { Vec::new() } else { row.split('\t').collect() };
            rows.push(cells.into_iter().map(decode_cell).collect::<Result<Vec<_>, _>>()?);
        }
        out.push((unescape(key), QueryResult(rows)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_results_round_trip() {
        let rows = QueryResult(vec![
            vec![
                AtomValue::Chr(b'R'),
                AtomValue::Dbl(0.1 + 0.2),
                AtomValue::Lng(-5),
                AtomValue::str("a\tb\\c\nd"),
                AtomValue::Date(Date::from_ymd(1995, 3, 15)),
            ],
            vec![AtomValue::Oid(7), AtomValue::Int(3), AtomValue::Bool(true), AtomValue::Void(9)],
        ]);
        let mut text = String::new();
        encode(&mut text, "q01 pinned", &rows);
        encode(&mut text, "q02\tx", &QueryResult(Vec::new()));
        let back = decode(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, "q01 pinned");
        assert_eq!(back[0].1, rows);
        assert_eq!(back[1].0, "q02\tx");
        assert!(back[1].1.is_empty());
    }

    #[test]
    fn corrupted_reference_fails_the_check() {
        let rows = QueryResult(vec![vec![AtomValue::Int(1)]]);
        let mut o = Oracle::new(true);
        o.insert("k".into(), rows.clone());
        assert!(o.check("k", &Ok(rows.clone())).is_err());
        let mut o = Oracle::new(false);
        o.insert("k".into(), rows.clone());
        assert!(o.check("k", &Ok(rows)).is_ok());
        assert!(o.check("k", &Err("boom".into())).is_err());
        assert!(o.check("missing", &Ok(QueryResult::default())).is_err());
    }
}
