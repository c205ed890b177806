#!/usr/bin/env python3
"""Fusion benchmark: one workload, one seed, one JVM.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds the program's main
sources together with the harness in perfbench/ (sbt, offline) and records
the class path; later calls reuse it while the sources are unchanged.

The JVM (repro.perfbench.Main) sets up the seeded inputs, runs the Gen pass
cold and then warm for --seconds, checks every result against a reference
pass, and prints its raw measurements. This script prints them as one JSON
object on the last line of stdout: with --trace 0 the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. See catalogue.json
for the layer and the expected effect of each metric.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CLASSPATH_FILE = os.path.join(BUILD_DIR, "perfbench-classpath.txt")
TMP_DIR = os.path.join(BUILD_DIR, "tmp")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
# Fixed heap (-Xms = -Xmx) so that GC behaviour does not depend on how
# far the heap has grown; recorded in the output of every run.
HEAP = "4g"
JVM_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def die(msg, code=2):
    log(f"ERROR {msg}")
    sys.exit(code)


def source_stamp():
    """Hash of every file the build reads, so a changed source rebuilds."""
    h = hashlib.sha256()
    inputs = [PROGRAM_SOURCES, os.path.join(HERE, "src"),
              os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in inputs:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def build():
    """Compile with sbt unless the recorded class path matches the sources."""
    if not os.path.isfile(os.path.join(ROOT, "build.sbt")) or not os.path.isdir(PROGRAM_SOURCES):
        die("no program sources next to the benchmark (expected build.sbt and src/main/scala)")
    stamp = source_stamp()
    if os.path.isfile(CLASSPATH_FILE):
        with open(CLASSPATH_FILE) as f:
            lines = f.read().splitlines()
        if len(lines) == 2 and lines[0] == stamp:
            return lines[1]
    log("building (sbt compile)")
    os.makedirs(TMP_DIR, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Djava.io.tmpdir={TMP_DIR}", "compile", "export Runtime/fullClasspath"]
    try:
        res = subprocess.run(cmd, cwd=HERE, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("sbt not found on PATH")
    except subprocess.TimeoutExpired:
        die("build timed out")
    out = res.stdout.splitlines()
    if res.returncode != 0:
        sys.stderr.write("\n".join(out[-40:]) + "\n")
        die(f"build failed (sbt exit {res.returncode})")
    cps = [l for l in out if "target" in l and os.pathsep in l and not l.startswith("[")]
    if not cps:
        sys.stderr.write("\n".join(out[-40:]) + "\n")
        die("build printed no class path")
    with open(CLASSPATH_FILE, "w") as f:
        f.write(stamp + "\n" + cps[-1] + "\n")
    return cps[-1]


def run_jvm(classpath, workload, seed, seconds, trace):
    """Run Main in a fresh JVM; returns its parsed PERFBENCH record."""
    out_dir = os.path.join(BUILD_DIR, "runs")
    os.makedirs(TMP_DIR, exist_ok=True)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={TMP_DIR}",
           "-cp", classpath, "repro.perfbench.Main",
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: JVM did not finish within {JVM_TIMEOUT_S} s")
    finally:
        # also reached when this script is interrupted: never leave the JVM behind
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        die(f"{workload}: JVM exited with {proc.returncode}", 3)
    records = [l[len("PERFBENCH "):] for l in stdout.splitlines() if l.startswith("PERFBENCH ")]
    if len(records) != 1:
        die(f"{workload}: expected one PERFBENCH record, got {len(records)}")
    return json.loads(records[0])


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        die("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        return json.load(f)


def main():
    # SIGTERM unwinds like Ctrl-C, so child processes are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r}; expected one of {names}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    rec = run_jvm(build(), args.workload, args.seed, args.seconds, args.trace)
    raw = rec["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in raw]
    if missing:
        die(f"{args.workload}: no value for {missing}")

    print("# " + json.dumps({k: rec[k] for k in (
        "workload", "seed", "heap_mb", "heap_args", "input_checksum",
        "warm_passes", "traced_passes", "wall_s", "errors")}))
    if args.trace:
        print(f"# javac cross-check: sampled compiler.compile_s = {raw['compiler.compile_s']:.3f} s, "
              f"program compiler.javac_ms = {raw['compiler.javac_ms']:.1f} ms")
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
