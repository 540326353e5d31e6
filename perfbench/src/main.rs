//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <sf0.1-power|sf0.001-serve|sf1-store> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke] [--work-dir <dir>]
//! ```
//!
//! Runs one workload through the public service API, checks every result
//! against the `relstore` oracle, and prints two JSON lines on stdout: the
//! host and configuration (`{"config": ...}`) and, last, the result
//! (`{"correct", "attempted", "failed", "metrics"}`). `--trace 0` prints
//! the end-to-end metrics, `--trace 1` the per-layer ones. The exit code
//! is 0 only when every statement matched the oracle.
//!
//! `--smoke` runs the workload at SF 0.001 with one pass (the self-test);
//! `--corrupt-oracle` corrupts one reference result, which must fail the
//! run. `DESIGN.md` next to this package describes the workloads and
//! which layer metric should move which end-to-end metric.

mod oracle;
mod params;
mod stats;
mod traced;
mod workload;

use std::path::PathBuf;

use workload::{Args, Workload};

const USAGE: &str = "usage: perfbench --workload <sf0.1-power|sf0.001-serve|sf1-store> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke] [--corrupt-oracle] \
                     [--work-dir <dir>]";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut corrupt_oracle = false;
    let mut work_dir = PathBuf::from("perfbench/.work");
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            "--corrupt-oracle" => corrupt_oracle = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smoke,
        corrupt_oracle,
        work_dir,
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = match workload::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let v = &out.verdict;
    for reason in &v.reasons {
        eprintln!("perfbench: oracle mismatch: {reason}");
    }
    println!("{}", out.config);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        v.failed == 0 && v.attempted > 0,
        v.attempted,
        v.failed,
        out.metrics.to_json()
    );
    if v.failed > 0 || v.attempted == 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload sf1-store --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Store);
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, 10.0, true, false));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload sf0.1-power --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload sf0.1-power --seconds 1").is_err());
        assert!(args("--workload sf0.1-power --seed 1 --seconds 1 --bogus").is_err());
    }
}
