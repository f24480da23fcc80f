#!/usr/bin/env python3
"""The repository benchmark (BENCHMARK.json): build, run, check, report.

    python3 vbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 vbench/run.py --smoke
    python3 vbench/run.py --compare OLD NEW
    python3 vbench/run.py --pin FIRST-LAST [--workload W]

Run from the repository root. The first form builds vbench/ (and with it
the vc2m libraries from src/) into $CARGO_TARGET_DIR/vbench, default
.bench_build/vbench, times the workload's set-up in fresh processes, runs
the workload for S seconds (trace 0: end-to-end metrics) or once more with
spans (trace 1: per-layer metrics), checks its outputs, saves the full
result with its host/build stamp under <build>/results/, and prints one
JSON line {correct, attempted, failed, metrics} last on stdout.

--smoke builds and runs the arithmetic tests and all three workloads at
toy sizes in a few seconds. --compare prints the median change of every
end-to-end metric between two saved results (files or directories), and
refuses to compare wall-time metrics across different host/build stamps.
--pin reruns every workload (or the one named) once per seed in the range
and rewrites its entries in vbench/golden.json, the output digests later
runs must reproduce.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-fig4", "serve-steady", "serve-flash")
SETUP_SPAWNS = 25
# Stamp fields that must match before wall-time metrics are compared.
HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type")
DETERMINISTIC = {"modeled_us_per_op"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "vbench")


def build(targets):
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", "4", "--target", *targets],
                   stdout=sys.stderr, check=True)
    return bdir


def source_digest():
    """sha256 over every file under src/ and vbench/ (path and bytes)."""
    h = hashlib.sha256()
    for top in ("src", "vbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def measure_setup(exe, args, run_dir):
    """Median seconds from process start to "ready" over fresh processes
    (one unmeasured warm-up spawn first)."""
    times = []
    for i in range(SETUP_SPAWNS + 1):
        d = os.path.join(run_dir, "setup%d" % i)
        os.makedirs(d)
        t0 = time.perf_counter()
        p = subprocess.Popen([exe, "--setup", "--workload", args.workload,
                              "--seed", str(args.seed), "--dir", d],
                             stdout=subprocess.PIPE, text=True)
        try:
            line = p.stdout.readline()
            t1 = time.perf_counter()
            rc = p.wait(timeout=60)
        finally:
            if p.poll() is None:
                p.kill()
                p.wait()
            p.stdout.close()
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError("set-up process failed")
        shutil.rmtree(d)
        if i > 0:
            times.append(t1 - t0)
    return statistics.median(times)


def run_vbench(exe, argv, timeout):
    p = subprocess.Popen([exe, *argv], stdout=subprocess.PIPE, text=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError("vbench timed out")
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
    if p.returncode != 0:
        raise RuntimeError("vbench exited with %d" % p.returncode)
    return json.loads(out.strip().splitlines()[-1])


def check_metrics(res, trace):
    """The metric names and units must be exactly BENCHMARK.json's."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = res["metrics"]
    for m in want:
        if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
            raise RuntimeError("metric %s missing or with another unit"
                               % m["name"])
    extra = set(got) - {m["name"] for m in want}
    if extra:
        raise RuntimeError("metrics outside BENCHMARK.json: %s"
                           % sorted(extra))


def check_golden(res, args):
    """Outputs pinned per seed in vbench/golden.json must reproduce."""
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    want = golden.get(args.workload, {}).get(str(args.seed))
    got = res["detail"].get("output_digest")
    res["detail"]["golden"] = "unpinned" if want is None else want
    if want is not None and got != want:
        res["correct"] = False
        res["failures"].append("output digest %s, pinned %s" % (got, want))


def run(args):
    bdir = build(["vbench"])
    exe = os.path.join(bdir, "vbench")
    run_dir = os.path.join(bdir, "run-%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        setup_s = None if args.trace else measure_setup(exe, args, run_dir)
        d = os.path.join(run_dir, "run")
        os.makedirs(d)
        res = run_vbench(exe, ["--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--dir", d],
                         timeout=args.seconds + 150)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if setup_s is not None:
        # Scaled to the nominal host like the run's own wall times.
        setup_s /= res["stamp"]["host_slowdown"]
        res["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"},
                          **res["metrics"]}
    check_metrics(res, args.trace)
    if not args.trace:
        check_golden(res, args)
    res["stamp"]["git_rev"] = git_rev()
    res["stamp"]["source_digest"] = source_digest()
    res["stamp"]["trace"] = args.trace

    out_dir = os.path.join(bdir, "results")
    os.makedirs(out_dir, exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (args.workload, args.seed,
                                          args.trace, time.time_ns())
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(res, f, indent=1, sort_keys=True)
    for key, m in res["metrics"].items():
        log("%-40s %16.6g %s" % (key, m["value"], m["unit"]))
    for line in res["failures"]:
        log("FAILED:", line)
    print(json.dumps({k: res[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


def smoke():
    bdir = build(["vbench", "vbench_test"])
    ok = subprocess.run([os.path.join(bdir, "vbench_test")],
                        stdout=sys.stderr).returncode == 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            d = os.path.join(bdir, "smoke-%s-%d" % (workload, trace))
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d)
            try:
                res = run_vbench(os.path.join(bdir, "vbench"),
                                 ["--workload", workload, "--seed", "1",
                                  "--seconds", "0", "--trace", str(trace),
                                  "--dir", d, "--smoke"], timeout=120)
                good = res["correct"] and res["attempted"] > 0
            finally:
                shutil.rmtree(d, ignore_errors=True)
            log("smoke %-13s trace %d: %s" % (workload, trace,
                                             "ok" if good else res))
            ok = ok and good
    return 0 if ok else 1


def pin(seeds, workloads):
    first, _, last = seeds.partition("-")
    bdir = build(["vbench"])
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    for workload in workloads:
        golden[workload] = {}
        for seed in range(int(first), int(last or first) + 1):
            d = os.path.join(bdir, "pin")
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d)
            try:
                res = run_vbench(os.path.join(bdir, "vbench"),
                                 ["--workload", workload, "--seed", str(seed),
                                  "--seconds", "0", "--trace", "0",
                                  "--dir", d], timeout=300)
            finally:
                shutil.rmtree(d, ignore_errors=True)
            if not res["correct"]:
                raise RuntimeError("%s seed %d fails its checks: %s"
                                   % (workload, seed, res["failures"]))
            golden[workload][str(seed)] = \
                res["detail"]["output_digest"]
            log("pinned", workload, seed, golden[workload][str(seed)])
    with open(os.path.join(HERE, "golden.json"), "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def load_results(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    out = []
    for p in files:
        with open(p) as f:
            r = json.load(f)
        if r["stamp"].get("trace") == 0:
            out.append(r)
    return out


def compare(old_path, new_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    old, new = load_results(old_path), load_results(new_path)
    status = 0
    for workload in WORKLOADS:
        a = [r for r in old if r["stamp"]["workload"] == workload]
        b = [r for r in new if r["stamp"]["workload"] == workload]
        if not a or not b:
            continue
        stamps = {tuple(r["stamp"][k] for k in HOST_KEYS) for r in a + b}
        for m in spec["end_to_end"]:
            name = m["name"]
            if len(stamps) > 1 and name not in DETERMINISTIC \
                    and m["unit"] in ("s", "ms", "us", "1/s"):
                print("%-13s %-20s refused: host/build stamps differ"
                      % (workload, name))
                status = 2
                continue
            ma = statistics.median(r["metrics"][name]["value"] for r in a)
            mb = statistics.median(r["metrics"][name]["value"] for r in b)
            worse = (mb - ma) / ma if m["better"] == "lower" \
                else (ma - mb) / ma
            flag = "REGRESSED" if worse > m["bound"] else "ok"
            if worse > m["bound"]:
                status = max(status, 1)
            print("%-13s %-20s %14.6g -> %14.6g  worse by %+.3f (bound %.2f)"
                  " %s" % (workload, name, ma, mb, worse, m["bound"], flag))
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--pin", metavar="FIRST-LAST")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.compare:
        return compare(*args.compare)
    if args.pin:
        return pin(args.pin, [args.workload] if args.workload else WORKLOADS)
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    run(args)
    return 0


if __name__ == "__main__":
    # A terminated run still stops its child and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("vbench:", e)
        sys.exit(1)
