#!/usr/bin/env python3
"""Builds semrec's benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. The benchmark is the Rust package next to
this file; it is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`) and run as its own process, whose standard output passes
through unchanged: the last line is the result object.

`--smoke` runs every workload of BENCHMARK.json at a small scale, traced
and untraced, and checks that each run is correct and prints exactly the
metrics BENCHMARK.json names, with finite values, and that the traced run
wrote its span file.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
OUT_DIR = ".bench_out"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    status = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
    ).returncode
    if status != 0:
        fail(f"build failed with status {status}")
    return os.path.join(target, "release", "semrec-perfbench")


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=HERE
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(binary, args, capture=False):
    env = dict(os.environ, SEMREC_GIT_REV=git_rev())
    cmd = [binary, *args, "--out-dir", OUT_DIR]
    if capture:
        return subprocess.run(cmd, env=env, capture_output=True, text=True)
    return subprocess.run(cmd, env=env).returncode


def smoke(binary):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", name, "--seed", "1", "--seconds", "2", "--trace", trace,
                    "--scale", "small"]
            done = run(binary, args, capture=True)
            where = f"{name} --trace {trace}"
            if done.returncode != 0:
                fail(f"{where} exited with {done.returncode}:\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys are {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                fail(f"{where}: correct={result['correct']} attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                fail(f"{where}: missing {missing}, unexpected {extra}, or units differ")
            for metric, value in result["metrics"].items():
                if not isinstance(value["value"], (int, float)) or not math.isfinite(value["value"]):
                    fail(f"{where}: {metric} = {value['value']!r}")
            if trace == "1":
                spans = os.path.join(OUT_DIR, f"trace-{name}-1.jsonl")
                if not os.path.isfile(spans) or os.path.getsize(spans) == 0:
                    fail(f"{where}: no spans written to {spans}")
            print(f"smoke {where}: {len(got)} metrics ok")
    print("smoke: ok")


def main():
    binary = build()
    if sys.argv[1:] == ["--smoke"]:
        smoke(binary)
        return 0
    return run(binary, sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
