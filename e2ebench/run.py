#!/usr/bin/env python3
"""End-to-end benchmark of topofaq: query text -> answer.

Builds the library and the benchmark from source (CMake, Release) into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench, relative to the
repository root), then runs one workload:

    python3 e2ebench/run.py --workload analytic --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (BENCHMARK.json lists the metrics).
Build output goes to standard error.

    python3 e2ebench/run.py --selftest

runs every workload at small size and checks the benchmark itself: every
BENCHMARK.json metric is emitted with its unit and a finite value, the
traced attribution table sums to the traced wall time, and a deliberately
corrupted answer fails the correctness check.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["analytic", "serve", "protocol_sim"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    """Configures (once) and builds; returns the binary path or None."""
    bdir = build_dir()
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("e2ebench: library sources (src/) not found next to "
              "e2ebench/", file=sys.stderr)
        return None
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("e2ebench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    binary = os.path.join(bdir, "e2ebench")
    return binary if os.path.exists(binary) else None


def run_binary(binary, args, capture=False):
    cmd = [binary] + args + ["--out-dir", os.path.dirname(binary)]
    if not capture:
        sys.stdout.flush()
        return subprocess.run(cmd, cwd=ROOT).returncode, None
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return p.returncode, p.stdout


# ---------------------------------------------------------------------------
# Self-test

def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def check_metrics(result, expected, what, errors):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(what + ": result keys are " + str(sorted(result)))
        return
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append(what + ": attempted must be a whole number >= 1")
    got = result["metrics"]
    for m in expected:
        if m["name"] not in got:
            errors.append("%s: metric %s missing" % (what, m["name"]))
            continue
        v = got[m["name"]]
        if v.get("unit") != m["unit"]:
            errors.append("%s: metric %s has unit %r, want %r"
                          % (what, m["name"], v.get("unit"), m["unit"]))
        if not isinstance(v.get("value"), (int, float)) or \
                not math.isfinite(v["value"]):
            errors.append("%s: metric %s is not finite" % (what, m["name"]))
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        errors.append("%s: unlisted metrics %s" % (what, sorted(extra)))


def check_attribution(out, what, errors):
    wall = re.search(r"^## attribution .* ([0-9.]+) ms wall\)$", out, re.M)
    rows = re.findall(r"^attr (\S+)\s+([0-9.]+) ms", out, re.M)
    if not wall or not rows:
        errors.append(what + ": no attribution table")
        return
    layers = {name: float(ms) for name, ms in rows if name != "total"}
    if "unattributed" not in layers:
        errors.append(what + ": attribution has no unattributed row")
    total = sum(layers.values())
    traced = float(wall.group(1))
    if traced <= 0 or abs(total - traced) > 1e-3 * traced + 0.01:
        errors.append("%s: attribution sums to %.3f ms, traced wall is %.3f ms"
                      % (what, total, traced))


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in WORKLOADS:
        base = ["--workload", w, "--seed", str(DEFAULT_SEED), "--seconds", "2",
                "--small"]
        for trace, expected in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            what = "%s --trace %s" % (w, trace)
            code, out = run_binary(binary, base + ["--trace", trace], capture=True)
            result = last_json(out)
            if code != 0 or result is None or result.get("correct") is not True:
                errors.append(what + ": run failed or answers were wrong")
                continue
            check_metrics(result, expected, what, errors)
            if trace == "0":
                for m in spec["end_to_end"]:
                    v = result["metrics"].get(m["name"], {}).get("value", 0)
                    if not v > 0:
                        errors.append("%s: end-to-end metric %s is not > 0"
                                      % (what, m["name"]))
            else:
                check_attribution(out, what, errors)
        what = w + " --corrupt"
        code, out = run_binary(binary, base + ["--trace", "0", "--corrupt"],
                               capture=True)
        result = last_json(out)
        if code == 0 or result is None or result.get("correct") is not False:
            errors.append(what + ": a corrupted answer passed the check")
        print("selftest %-12s %s" % (w, "done"), file=sys.stderr)
    for e in errors:
        print("FAIL " + e)
    print("selftest: %s" % ("PASS" if not errors else "%d failures" % len(errors)))
    return 0 if not errors else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="input seed (default %d; %d is held out for "
                         "validating claims)" % (DEFAULT_SEED, HELD_OUT_SEED))
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--small", action="store_true",
                    help="self-test sizes")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt one answer; the run must report a mismatch")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.selftest:
        return selftest(binary)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.small:
        cmd.append("--small")
    if args.corrupt:
        cmd.append("--corrupt")
    code, _ = run_binary(binary, cmd)
    return code


if __name__ == "__main__":
    sys.exit(main())
