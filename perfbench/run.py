#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds ``perfbench`` (a package of its own,
depending on the workspace crates by path) with ``cargo build --release
--offline``, runs the workload, and prints one JSON object as the last
line of stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
one untraced run. ``--trace 1`` reports the per-layer metrics: it runs
the workload three times for a third of ``--seconds`` each — untraced,
traced, and traced with ``RAYON_NUM_THREADS=1`` — and derives
``rayon.speedup`` (1-thread ÷ all-thread time) and
``trace.overhead_frac`` (traced ÷ untraced time, minus one).

Every run also writes a diffable record — environment, per-step details,
every metric — to ``perfbench/out/<workload>-seed<n>-trace<t>.json``.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
OUT = os.path.join(HERE, "out")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def binary_path():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    return os.path.join(target, "release", "perfbench")


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat, or None where unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def run_binary(args, seconds, traced, threads=None):
    env = dict(os.environ)
    if threads is not None:
        env["RAYON_NUM_THREADS"] = str(threads)
    tag = f"{args.workload}-seed{args.seed}-t{threads or 'all'}"
    cmd = [
        binary_path(),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", "1" if traced else "0",
    ]
    if traced:
        cmd += ["--spans", os.path.join(OUT, f"spans-{tag}.tsv")]
    before = cpu_ticks()
    try:
        done = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{tag}: {e}")
    after = cpu_ticks()
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{tag}: exit code {done.returncode} without a result line")
    if done.returncode != 0 and result.get("correct", False):
        fail(f"{tag}: exit code {done.returncode}")
    if before and after and after[1] > before[1]:
        # Share of CPU time the hypervisor gave to other guests while the
        # run was measuring: the first thing to check when a run is slow.
        result["record"]["cpu_steal_share"] = (after[0] - before[0]) / (after[1] - before[1])
    return result


def command_output(cmd):
    try:
        return subprocess.run(
            cmd, capture_output=True, text=True, timeout=30, check=False, cwd=ROOT
        ).stdout.strip() or None
    except OSError:
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, so two records of
    the same code carry the same digest even outside a git checkout."""
    h = hashlib.sha256()
    roots = ["crates", "vendor", os.path.join("perfbench", "src"), os.path.join("perfbench", "tests")]
    files = ["Cargo.toml", "Cargo.lock", os.path.join("perfbench", "Cargo.toml")]
    for r in roots:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, r)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "out"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    files.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in sorted(files):
        path = os.path.join(ROOT, rel)
        if os.path.isfile(path):
            h.update(rel.encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def environment(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else None,
        "source_digest": source_digest(),
        "rustc": command_output(["rustc", "--version"]),
        "nproc": command_output(["nproc"]),
        "cpu_count": os.cpu_count(),
        "RAYON_NUM_THREADS": os.environ.get("RAYON_NUM_THREADS"),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def pick(metrics, declared, run_name):
    out = {}
    for m in declared:
        if m["name"] not in metrics:
            fail(f"{run_name} did not report {m['name']}")
        out[m["name"]] = metrics[m["name"]]
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be ≥ 0 and --seconds > 0")

    end_to_end, per_layer = declared_metrics()
    build()
    os.makedirs(OUT, exist_ok=True)
    record = {"environment": environment(args)}

    if args.trace == 0:
        run = run_binary(args, args.seconds, traced=False)
        runs = [run]
        metrics = pick(run["metrics"], end_to_end, "untraced run")
        record["run"] = run
    else:
        part = max(1.0, args.seconds / 3.0)
        base = run_binary(args, part, traced=False)
        traced = run_binary(args, part, traced=True)
        single = run_binary(args, part, traced=True, threads=1)
        runs = [base, traced, single]
        got = dict(traced["metrics"])
        r_all, r_one, r_base = traced["record"], single["record"], base["record"]
        got["rayon.speedup"] = {
            "value": r_one["parallel_unit_ms"] / r_all["parallel_unit_ms"],
            "unit": "x",
        }
        got["trace.overhead_frac"] = {
            "value": r_all["unit_ms"] / r_base["unit_ms"] - 1.0,
            "unit": "ratio",
        }
        metrics = pick(got, per_layer, "traced run")
        record["runs"] = {"untraced": base, "traced": traced, "traced_1_thread": single}

    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    record["result"] = result
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps(result))
    if not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
