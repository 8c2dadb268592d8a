#!/usr/bin/env python3
"""Run one workload of the MODis search benchmark from the repository root.

    python3 perfbench/run.py --workload mental-bi --seed 1 --seconds 10 --trace 0

Builds the program and the benchmark from source with sbt on first use (the
classpath is cached under perfbench/out/build, keyed by a hash of the
sources), then runs the search loop in one JVM. The last line of standard
output is the result as one JSON object; see perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path("perfbench")
OUT = BENCH / "out"
BUILD = OUT / "build"
TMP = OUT / "tmp"  # java.io.tmpdir of sbt and the JVM, so Spark's temporary files stay here
# Inputs of the build: a change to any of them rebuilds.
SOURCES = ["build.sbt", "project", "src/main", "jobs",
           "perfbench/build.sbt", "perfbench/project", "perfbench/src"]
RUN_LIMIT_S = 176    # one run, after any build; a run must end within 180 s
BUILD_LIMIT_S = 880  # the first run in a checkout, build included


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    for name in SOURCES:
        p = Path(name)
        if p.is_file():
            yield p
        elif p.is_dir():
            yield from sorted(f for f in p.rglob("*") if f.is_file()
                              and "target" not in f.parts)


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build(deadline):
    """Compile with sbt and return the runtime classpath."""
    key = stamp()
    cp_file, stamp_file = BUILD / "classpath", BUILD / "stamp"
    if stamp_file.is_file() and stamp_file.read_text() == key and cp_file.is_file():
        return cp_file.read_text().strip(), False
    print("perfbench: building with sbt", file=sys.stderr)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
           f"-Djava.io.tmpdir={TMP.resolve()}", "export Runtime/fullClasspath"]
    # dependencies come from the local caches only
    env = dict(os.environ, COURSIER_MODE="offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true")
    # sbt is a script that starts a JVM: run it in its own process group so
    # a timeout stops both
    proc = subprocess.Popen(cmd, cwd=BENCH, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("build timed out")
    if proc.returncode != 0:
        sys.stderr.write(out[-4000:] + err[-4000:])
        fail("build failed")
    lines = [l for l in out.splitlines() if ".jar" in l and not l.startswith("[")]
    if not lines:
        sys.stderr.write(out[-8000:])
        fail("sbt printed no classpath")
    BUILD.mkdir(parents=True, exist_ok=True)
    cp_file.write_text(lines[-1].strip())
    stamp_file.write_text(key)
    return lines[-1].strip(), True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a name in Main.Workloads")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    start = time.time()
    if not (Path("build.sbt").is_file() and Path("src/main/scala").is_dir()):
        fail("run from the repository root: the program's sources are missing")
    TMP.mkdir(parents=True, exist_ok=True)
    classpath, built = build(start + BUILD_LIMIT_S)
    deadline = start + (BUILD_LIMIT_S if built else RUN_LIMIT_S)

    # A fixed heap and the throughput collector: no heap resizing during a
    # run, and no concurrent GC threads competing with Spark's 4 task threads.
    java = [os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ
            else "java", "-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-XX:-UsePerfData",
            f"-Djava.io.tmpdir={TMP.resolve()}", "-cp", classpath, "repro.perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT)]
    proc = subprocess.Popen(java, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1, deadline - time.time()), proc.kill)
    watchdog.start()
    result = None
    try:
        for line in proc.stdout:
            # hold the result back so a failed run prints none
            if line.startswith('{"correct"'):
                result = line.strip()
            else:
                sys.stdout.write(line)
                sys.stdout.flush()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(TMP, ignore_errors=True)
    if time.time() >= deadline:
        fail("run exceeded its time limit")
    if proc.returncode != 0 or result is None:
        fail(f"benchmark exited with code {proc.returncode}")
    parsed = json.loads(result)
    if set(parsed) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result {result}")
    print(result)


if __name__ == "__main__":
    main()
