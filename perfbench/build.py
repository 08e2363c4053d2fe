"""Build file of the benchmark: compiles the program's sources
(src/main/scala) together with the benchmark's own Scala sources
(perfbench/scala) into one class directory, with the Scala compiler that
ships in the Spark distribution. The compile is skipped when the sources,
compiler and classpath are unchanged since the last build.

    python3 perfbench/build.py        # prints the runtime classpath
"""

import glob
import hashlib
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")


class BuildError(Exception):
    pass


def spark_jars():
    """The Spark jars the program builds against: build.sbt's unmanagedBase,
    else $SPARK_HOME/jars."""
    candidates = []
    sbt = os.path.join(ROOT, "build.sbt")
    if os.path.exists(sbt):
        with open(sbt) as f:
            candidates += re.findall(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)', f.read())
    if os.environ.get("SPARK_HOME"):
        candidates.append(os.path.join(os.environ["SPARK_HOME"], "jars"))
    for jars in candidates:
        if glob.glob(os.path.join(jars, "spark-core_*.jar")):
            return jars
    raise BuildError("no Spark jars: build.sbt names none and SPARK_HOME is not a Spark distribution")


def scala_jars(jars):
    found = []
    for name in ("scala-compiler", "scala-library", "scala-reflect"):
        hits = sorted(glob.glob(os.path.join(jars, f"{name}-2.13.*.jar")))
        if not hits:
            raise BuildError(f"{name} 2.13 jar missing from {jars}")
        found.append(hits[-1])
    return found


def sources():
    program = sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"), recursive=True))
    if not program:
        raise BuildError(f"no program sources under {os.path.join(ROOT, 'src', 'main', 'scala')}")
    bench = sorted(glob.glob(os.path.join(HERE, "scala", "**", "*.scala"), recursive=True))
    return program + bench


def digest(paths, extra):
    h = hashlib.sha256()
    for item in extra:
        h.update(item.encode() + b"\0")
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build(log=sys.stderr):
    """Compile if needed; return the runtime classpath."""
    jars = spark_jars()
    compiler = scala_jars(jars)
    srcs = sources()
    classes = os.path.join(OUT, "classes")
    stamp_file = os.path.join(OUT, "build.stamp")
    stamp = digest(srcs, compiler + [jars])
    classpath = os.pathsep.join([classes, os.path.join(jars, "*")])
    if os.path.isdir(classes) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == stamp:
                return classpath
    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    if os.path.exists(stamp_file):
        os.remove(stamp_file)
    print(f"perfbench: compiling {len(srcs)} Scala sources", file=log, flush=True)
    cmd = ["java", "-XX:-UsePerfData", "-Xmx1g", "-Xss4m", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn",
           "-d", classes, "-classpath", os.path.join(jars, "*")] + srcs
    proc = subprocess.run(cmd, stdout=log, stderr=log, timeout=600)
    if proc.returncode != 0:
        raise BuildError(f"scalac failed with exit code {proc.returncode}")
    with open(stamp_file, "w") as f:
        f.write(stamp + "\n")
    return classpath


if __name__ == "__main__":
    try:
        print(build())
    except (BuildError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench build: {e}", file=sys.stderr)
        sys.exit(2)
