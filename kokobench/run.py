#!/usr/bin/env python3
"""Query benchmark of the KOKO engine.

    python3 kokobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run compiles the engine sources of
this checkout with the benchmark (sbt, in kokobench/); later runs reuse the
build until a source file changes. One JVM then sets the workload's corpus
and index up, checks the engine against the index-free reference and sends
the query from one closed-loop client for --seconds seconds.

The last line of standard output is the result: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Lines
before it give provenance and details; the raw measurements, spans included,
are written to kokobench/target/reports/.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from stats import median, self_times, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TARGET = HERE / "target"
SOURCES = [ROOT / "src" / "main" / "scala", ROOT / "jobs", HERE / "src" / "main",
           HERE / "build.sbt", HERE / "project" / "build.properties"]
HEAP = "4g"
SHUFFLE_PARTITIONS = "64"
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"kokobench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kw):
    """Runs cmd in its own process group with its output on stderr; on
    timeout kills the whole group and waits for it."""
    p = subprocess.Popen(cmd, start_new_session=True, stdout=sys.stderr, stderr=sys.stderr, **kw)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{cmd[0]} exceeded {timeout} s")


def source_hash():
    h = hashlib.sha256()
    for src in SOURCES:
        files = sorted(p for p in src.rglob("*") if p.is_file()) if src.is_dir() else [src]
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def build(digest):
    """Compiles with sbt unless the classes of these exact sources exist."""
    stamp, classpath = TARGET / "sources.sha256", TARGET / "classpath.txt"
    if stamp.exists() and classpath.exists() and stamp.read_text() == digest:
        return classpath.read_text().strip()
    stamp.unlink(missing_ok=True)
    if run(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "writeClasspath"],
           BUILD_TIMEOUT_S, cwd=HERE) != 0:
        fail("build failed")
    stamp.write_text(digest)
    return classpath.read_text().strip()


def git_provenance():
    """(sha, dirty) when the checkout is a git repository, else (None, None)."""
    def git(*a):
        return subprocess.run(["git", *a], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return None, None
        return git("rev-parse", "HEAD"), git("status", "--porcelain") != ""
    except (OSError, subprocess.CalledProcessError):
        return None, None


def run_jvm(classpath, args, report):
    nproc = len(os.sched_getaffinity(0))
    local = TARGET / "spark-local"
    local.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, SPARK_MASTER=f"local[{nproc}]",
               SPARK_SHUFFLE_PARTITIONS=SHUFFLE_PARTITIONS, SPARK_LOCAL_DIRS=str(local))
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={local}",
           "-cp", classpath, "kokobench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(report)]
    code = run(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)
    if code != 0 or not report.exists():
        fail(f"run failed with exit code {code}")
    return json.loads(report.read_text())


def end_to_end(raw):
    """Times have the host's steal (seconds per CPU) taken out; the details
    keep the wall-clock median and the share of the window that was stolen."""
    window = [q for q in raw["queries"] if q["phase"] == "window"]
    lat = [q["latency_s"] - q["steal_s"] for q in window]
    steal = sum(q["steal_s"] for q in window)
    value, pct, n = tail(lat)
    details = {"window_queries": n, "tail_percentile": pct,
               "wall_p50_s": median(q["latency_s"] for q in window),
               "steal_share": steal / sum(q["latency_s"] for q in window),
               "warmup_s": [q["latency_s"] for q in raw["queries"] if q["phase"] == "warmup"]}
    return {
        "query_p50_s": median(lat),
        "query_tail_s": value,
        "docs_per_s": raw["docs"] * sum(q["ok"] for q in window) / (raw["window_s"] - steal),
        "setup_s": median(s - st for s, st in zip(raw["setup_s"], raw["setup_steal_s"])),
        "index_mb": raw["index_mb"],
        "ok_ratio": sum(q["ok"] for q in raw["queries"]) / len(raw["queries"]),
    }, details


def per_layer(raw):
    values = {k: median(v) for k, v in raw["layers"].items()}
    st = self_times(raw["spans"])
    by_name = {}
    for sp in raw["spans"]:
        by_name.setdefault(sp["name"], []).append(st[sp["id"]] / 1e9)
    untraced = [q["latency_s"] for q in raw["queries"] if q["phase"] == "untraced"]
    details = {"self_s": {k: median(v) for k, v in by_name.items()},
               "traced_queries": len(raw["layers"].get("engine.query_s", [])),
               "untraced_p50_s": median(untraced)}
    return values, details


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not all(p.exists() for p in SOURCES + [spec_file]):
        fail("run from a checkout of the repository: engine sources or BENCHMARK.json missing")
    spec = json.loads(spec_file.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    digest = source_hash()
    classpath = build(digest)
    report = TARGET / "reports" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.parent.mkdir(parents=True, exist_ok=True)
    report.unlink(missing_ok=True)
    raw = run_jvm(classpath, args, report)

    values, details = per_layer(raw) if args.trace else end_to_end(raw)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"run did not measure {missing}")
    sha, dirty = git_provenance()
    provenance = dict(raw["provenance"], git_sha=sha, git_dirty=dirty, sources_sha256=digest,
                      workload=args.workload, trace=args.trace)
    failures = [q for q in raw["queries"] if not q["ok"]]
    print("provenance " + json.dumps(provenance))
    print("details " + json.dumps(dict(details, reference_rows=raw["reference_rows"],
                                       self_check=raw["self_check"],
                                       errors=[q["error"] for q in failures][:5])))
    print(json.dumps({
        "correct": raw["self_check"] and not failures,
        "attempted": len(raw["queries"]),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
