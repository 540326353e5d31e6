//! Statements and the seeded TPC-D substitution-parameter generator.
//!
//! The power and store workloads run Q1–Q15 with the pinned parameter set
//! of `Params::for_data`. The serving workload draws every statement: the
//! query uniformly from Q1–Q15 and each of its substitution parameters
//! from the TPC-D domain that parameter has in the specification (clause
//! 2.4 of each query), restricted to the value pools of `tpcd::text`, so
//! every drawn value occurs in the generated data and no statement fails.
//!
//! Why these parameters vary: each one is a `prm(..)` slot of the query
//! expression, so a new value exercises the plan cache's re-binding path
//! instead of an exact repeat, and the values move selectivities (date
//! windows, region/nation picks, size and type filters) the way a TPC-D
//! query stream does. Small domains (Q9's colour, Q11's nation, Q13's
//! clerk) repeat often; large ones (Q2's size × type × region, Q7's nation
//! pair) rarely do. `server.repeat_share` reports the resulting mix.

use monet::atom::Date;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tpcd::text::{self, NAME_PARTS, NATIONS, REGIONS, SEGMENTS, SHIP_MODES, TYPES_3};
use tpcd_queries::Params;

/// One statement: a query (index into `all_queries()`), its bound
/// parameters, and a key naming exactly the values that differ from the
/// pinned set — equal keys mean equal statements.
#[derive(Clone)]
pub struct Stmt {
    pub qi: usize,
    pub params: Params,
    pub key: String,
}

impl Stmt {
    /// Query `qi` with the pinned parameter set.
    pub fn pinned(qi: usize, params: &Params) -> Stmt {
        Stmt { qi, params: params.clone(), key: format!("q{:02} pinned", qi + 1) }
    }
}

/// Deterministic statement stream: the same `(seed, stream)` pair yields
/// the same statements in the same order.
pub struct ParamGen {
    rng: StdRng,
    base: Params,
    clerks: u32,
}

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

/// First day of the month `k` months after `y`-`m`-01.
fn month(y: i32, m: u32, k: i32) -> Date {
    Date::from_ymd(y, m, 1).add_months(k)
}

impl ParamGen {
    /// `stream` separates the clients of one run; `clerks` is the number
    /// of clerks the generated data has (Q13's domain).
    pub fn new(seed: u64, stream: u64, base: Params, clerks: u32) -> ParamGen {
        let mixed = seed ^ stream.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ParamGen { rng: StdRng::seed_from_u64(mixed), base, clerks: clerks.max(1) }
    }

    pub fn next_stmt(&mut self) -> Stmt {
        let qi = self.rng.gen_range(0..15usize);
        let mut p = self.base.clone();
        let r = &mut self.rng;
        let key = match qi + 1 {
            1 => {
                let delta: i32 = r.gen_range(60..=120);
                p.q1_cutoff = Date::from_ymd(1998, 12, 1).add_days(-delta);
                format!("delta={delta}")
            }
            2 => {
                p.q2_size = r.gen_range(1..=50);
                p.q2_type_contains = pick(r, &TYPES_3).into();
                p.q2_region = pick(r, &REGIONS).into();
                format!("{} {} {}", p.q2_size, p.q2_type_contains, p.q2_region)
            }
            3 => {
                p.q3_segment = pick(r, &SEGMENTS).into();
                p.q3_date = Date::from_ymd(1995, 3, r.gen_range(1..=31));
                format!("{} {}", p.q3_segment, p.q3_date)
            }
            4 => {
                p.q4_date = month(1993, 1, r.gen_range(0..58));
                format!("{}", p.q4_date)
            }
            5 => {
                p.q5_region = pick(r, &REGIONS).into();
                p.q5_date = Date::from_ymd(r.gen_range(1993..=1997), 1, 1);
                format!("{} {}", p.q5_region, p.q5_date)
            }
            6 => {
                p.q6_date = Date::from_ymd(r.gen_range(1993..=1997), 1, 1);
                // DISCOUNT in [0.02, 0.09]; the window is DISCOUNT ± 0.01.
                let d: i32 = r.gen_range(2..=9);
                p.q6_disc_lo = f64::from(d - 1) / 100.0;
                p.q6_disc_hi = f64::from(d + 1) / 100.0;
                p.q6_qty = r.gen_range(24..=25);
                format!("{} d={d} qty={}", p.q6_date, p.q6_qty)
            }
            7 => {
                let a = r.gen_range(0..NATIONS.len());
                let b = (a + r.gen_range(1..NATIONS.len())) % NATIONS.len();
                p.q7_nation1 = NATIONS[a].0.into();
                p.q7_nation2 = NATIONS[b].0.into();
                format!("{} {}", p.q7_nation1, p.q7_nation2)
            }
            8 => {
                // The nation must lie in the region whose market it shares.
                let (nation, region) = NATIONS[r.gen_range(0..NATIONS.len())];
                p.q8_nation = nation.into();
                p.q8_region = REGIONS[region].into();
                p.q8_type_contains = pick(r, &TYPES_3).into();
                format!("{} {}", p.q8_nation, p.q8_type_contains)
            }
            9 => {
                p.q9_color = pick(r, &NAME_PARTS).into();
                p.q9_color.clone()
            }
            10 => {
                p.q10_date = month(1993, 2, r.gen_range(0..24));
                format!("{}", p.q10_date)
            }
            11 => {
                p.q11_nation = NATIONS[r.gen_range(0..NATIONS.len())].0.into();
                p.q11_nation.clone()
            }
            12 => {
                let a = r.gen_range(0..SHIP_MODES.len());
                let b = (a + r.gen_range(1..SHIP_MODES.len())) % SHIP_MODES.len();
                p.q12_mode1 = SHIP_MODES[a].into();
                p.q12_mode2 = SHIP_MODES[b].into();
                p.q12_date = Date::from_ymd(r.gen_range(1993..=1997), 1, 1);
                format!("{} {} {}", p.q12_mode1, p.q12_mode2, p.q12_date)
            }
            13 => {
                p.q13_clerk = text::clerk_name(r.gen_range(1..=self.clerks));
                p.q13_clerk.clone()
            }
            14 => {
                p.q14_date = month(1993, 1, r.gen_range(0..60));
                format!("{}", p.q14_date)
            }
            _ => {
                p.q15_date = month(1993, 1, r.gen_range(0..58));
                format!("{}", p.q15_date)
            }
        };
        Stmt { qi, params: p, key: format!("q{:02} {key}", qi + 1) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let base = Params::for_sf(0.001);
        let keys = |seed, stream| {
            let mut g = ParamGen::new(seed, stream, base.clone(), 2);
            (0..200).map(|_| g.next_stmt().key).collect::<Vec<_>>()
        };
        assert_eq!(keys(7, 0), keys(7, 0));
        assert_ne!(keys(7, 0), keys(7, 1));
        assert_ne!(keys(7, 0), keys(8, 0));
    }

    #[test]
    fn q8_nation_lies_in_its_region() {
        let mut g = ParamGen::new(3, 0, Params::for_sf(0.001), 2);
        for _ in 0..2000 {
            let s = g.next_stmt();
            if s.qi == 7 {
                let (_, region) = NATIONS.iter().find(|(n, _)| *n == s.params.q8_nation).unwrap();
                assert_eq!(REGIONS[*region], s.params.q8_region);
            }
        }
    }
}
