"""IMIN benchmark: runs one workload's AG/GR/BG/MCS pipeline in a fresh JVM
and prints one JSON result object as the last line of stdout.

    python3 perfbench/run.py --workload table7-wiki-tr --seed 1 --seconds 10 --trace 0

Run from the repository root (any directory works; paths resolve from this
file). The first run compiles the program and the benchmark into
.bench_build/perfbench; later runs reuse the classes while the sources are
unchanged. With --trace 0 the result holds the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402  (the benchmark's build file, next to this one)

# Spark task threads: two leave room on a 4-vCPU host for the driver, JIT and
# GC threads (see NOTES.md, Running).
MAX_CORES = 2
HEAP = "3g"
JVM_TIMEOUT_S = 170
OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
         "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
         "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def commit():
    """The git commit of the checkout, or "unknown" outside a git checkout."""
    if not os.path.exists(os.path.join(build.ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", build.ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def program_digest():
    """sha256 of the program's sources: identifies the measured code."""
    srcs = [p for p in build.sources() if not p.startswith(build.HERE + os.sep)]
    return build.digest(srcs, [])


def cores():
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:
        available = os.cpu_count() or 1
    return max(1, min(MAX_CORES, available))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        classpath = build.build()
    except (build.BuildError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    work = os.path.join(build.OUT, "work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    n_cores = cores()
    cmd = (["java", "-XX:-UsePerfData", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2", "-Xmn1g",
            "-XX:InlineSmallCode=6000", "-XX:MaxInlineLevel=30", "-XX:FreqInlineSize=600", "-Djdk.reflect.useDirectMethodHandle=false",
            f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={os.path.join(build.HERE, 'log4j2.properties')}"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", classpath, "repro.perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--cores", str(n_cores), "--work-dir", work,
              "--env", f"commit={commit()}", "--env", f"program_sha256={program_digest()}",
              "--env", f"heap={HEAP}", "--env", f"nproc={os.cpu_count()}"])

    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(JVM_TIMEOUT_S, proc.kill)
    timer.start()
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                print(last, flush=True)
            last = line.rstrip("\n")
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()

    try:
        result = json.loads(last) if last else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        if last is not None:
            print(last, flush=True)
        print(f"perfbench: no result from the benchmark JVM (exit code {code})", file=sys.stderr)
        return code or 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
