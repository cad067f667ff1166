#!/usr/bin/env python3
"""The simsym benchmark: one workload, one run, one JSON result line.

Run from the root of a simsym checkout:

    python3 perfbench/run.py --workload verify-quotient --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py compare RESULTS_A RESULTS_B

The first form builds `simsym` and the `perfbench` helper from source
(into $CARGO_TARGET_DIR, default .bench_build), runs the workload, checks
its outputs, and prints as its last line
`{"correct", "attempted", "failed", "metrics"}`. With --trace 0 the
metrics are the end-to-end ones, measured with no tracing; with --trace 1
they are the per-layer ones from the traced run. Earlier lines carry the
host record and notes (sample counts, which percentile was reported).
Each result is also saved, with its host record, under
.perfbench_work/results/.

The second form compares two directories of saved results and warns when
their host records differ. See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("verify-quotient", "soak-journal")
WORK = ".perfbench_work"

VERIFY_ARGV = ["verify", "--family", "ring", "--procs", "6", "--reduce", "quotient",
               "--depth", "60", "--states", "3000000", "--json"]
VERIFY_STATES = {"quotient": 28420, "none": 170025}
SOAK_RUNS = 200

# Fewest CLI runs a batch measurement takes, however short --seconds is.
MIN_RUNS = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_checkout(root):
    for path in ("Cargo.toml", "src/bin/simsym.rs", "crates/serve", "perfbench/Cargo.toml"):
        if not os.path.exists(os.path.join(root, path)):
            fail(f"{path} is missing: run from the root of a simsym checkout")


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in (["--bin", "simsym"], ["--manifest-path", "perfbench/Cargo.toml"]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return (os.path.join(release, "simsym"), os.path.join(release, "perfbench"),
            os.path.join(release, "libperfbench_nosync.so"))


def fs_type(path):
    """The filesystem type of the mount holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                point = fields[1]
                inside = path == point or path.startswith(point.rstrip("/") + "/")
                if inside and len(point) > len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


def source_rev(root):
    """The git revision, or a digest of the sources when there is no git."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=False)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    files = ["Cargo.lock"] + sorted(glob.glob("src/**/*.rs", root_dir=root, recursive=True)
                                    + glob.glob("crates/**/*.rs", root_dir=root, recursive=True))
    for name in files:
        with open(os.path.join(root, name), "rb") as f:
            digest.update(name.encode() + b"\0" + f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def host_record(root, work):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
                       cpu)
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, check=False)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rustc": rustc.stdout.strip(),
        "rev": source_rev(root),
        "farm_state_fs": fs_type(work),
        "disk_probe_fs": fs_type(work),
    }


def cpu_ticks():
    """(steal, total) ticks of all CPUs from /proc/stat."""
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return 0, 0


def run_cli(argv):
    """Runs one CLI invocation; returns its stdout, exit code, and costs.
    CPU time and peak RSS come from wait4's rusage of exactly this child."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "out": out.decode("utf-8", "replace"),
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def verify_ok(run):
    if run["code"] != 0:
        return False
    try:
        doc = json.loads(run["out"])
    except ValueError:
        return False
    states = {r["reduce"]: r["states_canonical"] for r in doc.get("runs", [])}
    certified = any(d.get("code") == "DYN-EXPLORE-CERTIFIED" for d in doc.get("diagnostics", []))
    return states == VERIFY_STATES and certified


def soak_ok(run):
    if run["code"] != 0:
        return False
    try:
        doc = json.loads(run["out"])
    except ValueError:
        return False
    return doc.get("runs") == SOAK_RUNS and doc.get("violation_found") is False


def helper(argv, timeout=170):
    """Runs the perfbench helper and returns its JSON result. The helper
    starts farms of its own, so it runs in its own process group, and on a
    timeout the whole group is killed and waited for."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{os.path.basename(argv[0])} {argv[1]} timed out after {timeout}s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        fail(f"{os.path.basename(argv[0])} {argv[1]} failed")
    return json.loads(out.strip().splitlines()[-1])


def batch(workload, simsym, perfbench, seed, seconds):
    """A batch workload: the CLI run back to back for `seconds`, medians
    reported. Before each CLI run the setup is timed in process, so that
    the setup samples are spread over the whole run like the CLI samples."""
    if workload == "verify-quotient":
        # The search is exhaustive and deterministic: the seed changes nothing.
        argv, ok = [simsym] + VERIFY_ARGV, verify_ok
    else:
        argv = [simsym, "soak", "--family", "ring", "--journal", "--seed", str(seed), "--json"]
        ok = soak_ok
    runs, setups = [], []
    start = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
        setups.append(helper([perfbench, "setup", workload]))
        runs.append(run_cli(argv))
    failed = sum(1 for r in runs if not ok(r))
    median = lambda key: statistics.median(r[key] for r in runs)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_s": (median("wall_s"), "s"),
        "cpu_s": (median("cpu_s"), "s"),
        "peak_rss_mb": (median("rss_mb"), "MiB"),
    }
    notes = [
        f"{len(runs)} CLI runs in {time.perf_counter() - start:.2f}s; medians over them",
        f"setup_s: median over {len(setups)} rounds of the median of {setups[0]['reps']} "
        "in-process setups",
    ]
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }


def compare(dir_a, dir_b):
    """Prints per-workload metric medians of two result sets and warns when
    their host records differ."""
    def load(d):
        out = {}
        for name in sorted(glob.glob(os.path.join(d, "*.json"))):
            with open(name, encoding="utf-8") as f:
                out[os.path.basename(name)] = json.load(f)
        if not out:
            fail(f"no results in {d}")
        return out

    sets = [load(dir_a), load(dir_b)]
    hosts = [{json.dumps(r["host"], sort_keys=True) for r in s.values()} for s in sets]
    for key in ("nproc", "cpu", "rustc", "rev", "farm_state_fs", "disk_probe_fs"):
        values = [{json.loads(h)[key] for h in hs} for hs in hosts]
        if values[0] != values[1]:
            print(f"WARNING: host records differ in {key}: {sorted(values[0])} vs "
                  f"{sorted(values[1])}")
    groups = [{}, {}]
    for side, s in enumerate(sets):
        for r in s.values():
            for name, m in r["result"]["metrics"].items():
                groups[side].setdefault((r["workload"], r["trace"], name), []).append(m["value"])
    for key in sorted(set(groups[0]) & set(groups[1])):
        a, b = statistics.median(groups[0][key]), statistics.median(groups[1][key])
        change = (b - a) / a * 100 if a else float("nan")
        print(f"{key[0]:16} trace={key[1]} {key[2]:40} {a:14.6g} {b:14.6g} {change:+7.1f}%"
              f"  (n={len(groups[0][key])}/{len(groups[1][key])})")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare RESULTS_A RESULTS_B")
        compare(sys.argv[2], sys.argv[3])
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive")

    root = os.getcwd()
    check_checkout(root)
    simsym, perfbench, nosync = build(root)
    work = os.path.join(root, WORK, f"{args.workload}-{args.seed}-{args.trace}")
    subprocess.run(["rm", "-rf", work], check=True)
    os.makedirs(work)
    host = host_record(root, work)

    steal0, total0 = cpu_ticks()
    if args.trace:
        result = helper([perfbench, "trace", "--workload", args.workload, "--bin", simsym,
                         "--nosync", nosync, "--work", work, "--seed", str(args.seed),
                         "--seconds", str(args.seconds)])
    else:
        result = batch(args.workload, simsym, perfbench, args.seed, args.seconds)
    notes = result.pop("notes", [])
    steal1, total1 = cpu_ticks()
    # Time the hypervisor gave to other guests: the main source of noise on
    # a shared host, recorded so a noisy run can be recognised as such.
    notes.append(f"host steal share during the run: {(steal1 - steal0) / max(total1 - total0, 1):.4f}")
    results = os.path.join(root, WORK, "results")
    os.makedirs(results, exist_ok=True)
    saved = os.path.join(results, f"{args.workload}.seed{args.seed}.trace{args.trace}.json")
    spans = os.path.join(work, "spans.ndjson")
    if os.path.exists(spans):
        os.replace(spans, saved[:-len(".json")] + ".spans.ndjson")
    subprocess.run(["rm", "-rf", work], check=True)
    with open(saved, "w", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "host": host, "notes": notes, "result": result}, f, indent=1)
    for note in notes:
        print(f"# {note}")
    print("# host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
