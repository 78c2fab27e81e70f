#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-nyc --seed 1001 --seconds 10 --trace 0

Workloads (see perfbench/scala/Workloads.scala): sweep-nyc, search-xian,
dispatch-nyc. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A run record (machine
facts, per-pass times, behaviour numbers) and, when traced, the spans are
written under the build directory's `records/`.

The program is compiled from source (src/main/scala plus perfbench/scala)
with the Scala compiler shipped in the Spark distribution, into the
directory named by CARGO_TARGET_DIR (default .bench_build); a rebuild
happens only when a source file changes.

Golden outputs (perfbench/golden.tsv) are checked when the seed is the
workload's default (NYC 1001, Xi'an 1003). They were recorded with

    python3 perfbench/run.py --workload W --seed DEFAULT --seconds 1 --trace 0 \\
        --record-golden perfbench/golden-W.tsv

and concatenated into golden.tsv.
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
ROOT = os.getcwd()
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
BENCH_SRC = os.path.join(HERE, "scala")
# A run must end within 180 s after its build.
RUN_LIMIT_S = 170
# A fixed-size heap and the stop-the-world parallel collector: no heap
# resizing or concurrent marking competes with the task threads, and
# retained_mb (heap after full collections) carries no region rounding.
JVM_HEAP = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC"]
# No hsperfdata file under the system temp directory: a run writes only
# inside its checkout.
NO_PERF_DATA = "-XX:-UsePerfData"
JAVA_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io",
        "java.net", "java.nio", "java.util", "java.util.concurrent",
        "java.util.concurrent.atomic", "sun.nio.ch", "sun.nio.cs",
        "sun.security.action", "sun.util.calendar",
    )
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def java_bin():
    home = os.environ.get("JAVA_HOME")
    return os.path.join(home, "bin", "java") if home else "java"


def spark_jars():
    """The jars of the Spark distribution at SPARK_HOME."""
    home = os.environ.get("SPARK_HOME", "")
    jars = sorted(glob.glob(os.path.join(home, "jars", "*.jar")))
    if not home or not jars:
        fail("no Spark jars under SPARK_HOME=%r" % home)
    return jars


def sources():
    if not os.path.isdir(PROGRAM_SRC):
        fail("program sources %s not found; run from the repository root" % PROGRAM_SRC)
    files = []
    for top in (PROGRAM_SRC, BENCH_SRC):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def build(build_dir, jars):
    """Compile when the sources changed; return (classes dir, source hash)."""
    files = sources()
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    digest = h.hexdigest()
    classes = os.path.join(build_dir, "classes")
    stamp = os.path.join(build_dir, "classes.sha256")
    if os.path.exists(stamp) and open(stamp).read().strip() == digest:
        return classes, digest
    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    compiler = [j for j in jars if os.path.basename(j).startswith(("scala-compiler", "scala-library", "scala-reflect"))]
    cmd = [java_bin(), NO_PERF_DATA, "-Xss8m", "-cp", os.pathsep.join(compiler), "scala.tools.nsc.Main",
           "-nowarn", "-classpath", os.pathsep.join(jars), "-d", classes] + files
    print("perfbench: compiling %d sources" % len(files), file=sys.stderr)
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("compilation failed")
    with open(stamp, "w") as fh:
        fh.write(digest + "\n")
    return classes, digest


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--record-golden", help="write this run's outputs to FILE")
    a = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jars = spark_jars()
    classes, digest = build(build_dir, jars)
    deadline = time.monotonic() + RUN_LIMIT_S
    out = os.path.join(build_dir, "records")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(out, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)

    cmd = [java_bin(), NO_PERF_DATA] + JVM_HEAP + ["-Xss4m", "-Djava.io.tmpdir=" + tmp,
           "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties")] + JAVA_OPENS + [
        "-cp", os.pathsep.join([classes] + jars), "perfbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--out", out, "--golden", os.path.join(HERE, "golden.tsv"),
        "--commit", git_commit(), "--source-sha256", digest]
    if a.record_golden:
        cmd += ["--record-golden", os.path.abspath(a.record_golden)]

    env = dict(os.environ, SPARK_LOCAL_IP="127.0.0.1", SPARK_LOCAL_HOSTNAME="localhost",
               SPARK_LOCAL_DIRS=os.path.join(out, "spark-local"))

    def run(trace):
        """One JVM run; returns its parsed result line."""
        p = subprocess.Popen(cmd + ["--trace", trace], stdout=subprocess.PIPE, text=True, env=env,
                             start_new_session=True)

        def stop(signum=None, frame=None):
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
            fail("run stopped" if signum else "run exceeded %d s" % RUN_LIMIT_S)

        signal.signal(signal.SIGTERM, stop)
        signal.signal(signal.SIGINT, stop)
        try:
            stdout, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            stop()
        lines = stdout.strip().splitlines()
        if p.returncode != 0 or not lines or not lines[-1].startswith("{"):
            sys.stdout.write(stdout)
            fail("benchmark exited with code %d and no result" % p.returncode)
        return json.loads(lines[-1])

    if a.trace == "0":
        result = run("0")
    else:
        # Tracing overhead: the traced pass against the median untraced
        # wall_s of this workload and source in this build directory. With
        # no untraced run yet, one is made first.
        if not untraced_walls(out, a.workload, digest):
            run("0")
        result = run("1")
        walls = untraced_walls(out, a.workload, digest)
        traced = result["metrics"]["trace.wall_s"]["value"]
        result["metrics"]["trace.overhead_s"] = {"value": traced - statistics.median(walls), "unit": "s"}
    print(json.dumps(result))


def untraced_walls(out, workload, digest):
    walls = []
    for f in glob.glob(os.path.join(out, workload + "-seed*-trace0.record.json")):
        with open(f) as fh:
            r = json.load(fh)
        if r["machine"]["source_sha256"] == digest:
            walls.append(r["end_to_end"]["wall_s"])
    return walls


if __name__ == "__main__":
    main()
