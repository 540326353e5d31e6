#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run one workload (builds the `perfbench` package first, release, offline):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of stdout is the result, `{"correct", "attempted", "failed",
"metrics"}`; the line before it records the host and configuration. The
exit code is 0 only when every statement matched the oracle.

Measure the spread of a workload over several seeds, and optionally save
the medians as a baseline:

    python3 perfbench/run.py spread --workload <name> --seeds 1-10 [--seconds 10] [--save FILE]

Compare two results (a saved stdout of a run, or a baseline file), metric
by metric against the bounds in BENCHMARK.json. Results recorded on hosts
with different cpu counts are not compared:

    python3 perfbench/run.py compare <old> <new>

Run from the root of the repository.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BENCHMARK = os.path.join(HERE, "..", "BENCHMARK.json")


def cargo_run(args, **kw):
    cmd = ["cargo", "run", "--offline", "--release", "--quiet", "--manifest-path", MANIFEST, "--"]
    return subprocess.run(cmd + list(args), **kw)


def parse_output(text):
    """(config, result) from the stdout of one run."""
    lines = [l for l in text.splitlines() if l.strip()]
    config = next((json.loads(l)["config"] for l in lines if l.startswith('{"config"')), {})
    return config, json.loads(lines[-1])


def load(path):
    """A saved run (config, result) or a baseline file (host, {workload: medians})."""
    with open(path) as f:
        text = f.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict) and "baseline" in data:
        return data["host"], data["baseline"]
    return parse_output(text)


def spread(argv):
    opts = dict(zip(argv[::2], argv[1::2]))
    workload = opts["--workload"]
    lo, _, hi = opts.get("--seeds", "1-10").partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    seconds = opts.get("--seconds", "10")
    values, config = {}, {}
    for seed in seeds:
        p = cargo_run(
            ["--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        if p.returncode != 0:
            print(f"seed {seed}: exit {p.returncode}", file=sys.stderr)
            return 1
        config, result = parse_output(p.stdout)
        for name, m in result["metrics"].items():
            values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    medians = {}
    for name, (vals, unit) in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        share = (q3 - q1) / med if med else 0.0
        medians[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": share, "unit": unit}
        print(f"{name:16} median {med:.6g} {unit}  iqr/median {share:.4f}  ({len(vals)} runs)")
    if "--save" in opts:
        path = opts["--save"]
        saved = {"host": {}, "baseline": {}}
        if os.path.exists(path):
            with open(path) as f:
                saved = json.load(f)
        host = {k: config.get(k) for k in ("nproc", "threads", "min_rows", "morsel_rows")}
        if saved["host"] and saved["host"] != host:
            print(f"refusing to merge: {path} was recorded on {saved['host']}", file=sys.stderr)
            return 2
        saved["host"] = host
        saved["baseline"][workload] = {"config": config, "seeds": seeds, "metrics": medians}
        with open(path, "w") as f:
            json.dump(saved, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


def compare(old_path, new_path):
    with open(BENCHMARK) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    old_cfg, old = load(old_path)
    new_cfg, new = load(new_path)
    if old_cfg.get("nproc") != new_cfg.get("nproc"):
        print(f"refusing to compare: recorded on {old_cfg.get('nproc')} vs "
              f"{new_cfg.get('nproc')} cpus", file=sys.stderr)
        return 2
    workload = new_cfg.get("workload")
    if "metrics" in old:
        if old_cfg.get("workload") != workload:
            print("refusing to compare different workloads", file=sys.stderr)
            return 2
        old_vals = {k: v["value"] for k, v in old["metrics"].items()}
    else:
        old_vals = {k: v["median"] for k, v in old[workload]["metrics"].items()}
    worse = 0
    for name, m in new["metrics"].items():
        if name not in old_vals:
            continue
        a, b = old_vals[name], m["value"]
        change = (b - a) / a if a else 0.0
        verdict = ""
        if name in bounds:
            sign = 1 if bounds[name]["better"] == "lower" else -1
            if sign * change > bounds[name]["bound"]:
                verdict = "WORSE beyond bound"
                worse += 1
            else:
                verdict = "within bound"
        print(f"{name:28} {a:14.6g} -> {b:14.6g} {m['unit']:6} {change:+8.2%}  {verdict}")
    return 1 if worse else 0


def main(argv):
    if argv[:1] == ["compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    if argv[:1] == ["spread"]:
        return spread(argv[1:])
    return cargo_run(argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
