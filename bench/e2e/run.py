#!/usr/bin/env python3
"""End-to-end benchmark of PAM's serving stack and tree kernel.

Builds bench/e2e (a CMake project of its own that compiles the library from
the repository root) into build-e2e/, then runs each workload in a fresh
process with every inherited PAM_* variable removed.

  run.py --workload W --seed S [--seconds N] [--trace 0|1]   one run
  run.py --seed S [--repeat N] [--out F.json]                 every workload
  run.py --smoke                                              tiny inputs, <30 s
  run.py --compare A.json B.json                              verdict per metric

The measured window is BENCHMARK.json's run_seconds and the warm-up is a
fixed 3 s. `--seconds` exists so a harness can state the window on the
command line; any other value than run_seconds is refused, so every run of
one BENCHMARK.json measures the same window.

Prints one `workload metric value unit` line per metric, then, as the last
line, one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json for an untraced run, its per-layer
metrics for a traced one. Exits non-zero when a correctness check fails.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "pam_e2e"
RUNS = BUILD / "runs"
WORKLOADS = ["ycsb-a-durable", "ycsb-b-large", "scan-sum", "bulk-kernel"]
RUN_TIMEOUT_S = 170
WARMUP_S = 3.0
SMOKE_SECONDS, SMOKE_WARMUP_S = 1.0, 0.3
# Large enough that no thread's obs span ring wraps inside a traced window.
TRACE_RING = 1 << 18


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} not found")
    return json.loads(path.read_text())


# ------------------------------------------------------------------ build --

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "pam" / "pam.h").is_file():
        die("library sources (CMakeLists.txt, src/) not found at the repository root")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            die(f"build failed: {' '.join(cmd)}")


# ------------------------------------------------------------------- trace --

OBS_EVENT_RE = re.compile(
    r'\{"name":"([^"]+)","ph":"X","pid":1,"tid":(\d+),'
    r'"ts":(\d+)\.(\d+),"dur":(\d+)\.(\d+)\}')


def read_obs_spans(path):
    """The library's spans from obs::dump_chrome_json, in exact nanoseconds.

    The dump prints the sub-microsecond remainder as a plain integer after
    the dot (5 ns is written ".5"), so the digits are read back as an
    integer count of nanoseconds instead of a decimal fraction.
    """
    out = []
    for m in OBS_EVENT_RE.finditer(path.read_text()):
        name, tid = m.group(1), int(m.group(2))
        start = int(m.group(3)) * 1000 + int(m.group(4))
        dur = int(m.group(5)) * 1000 + int(m.group(6))
        out.append({"name": name, "tid": tid, "start": start, "end": start + dur})
    return out


def read_bench_spans(path):
    out = []
    for line in path.read_text().splitlines():
        name, sid, parent, thread, t0, t1 = line.split("\t")
        out.append({"name": name, "id": int(sid), "parent": int(parent),
                    "thread": int(thread), "start": int(t0), "end": int(t1)})
    return out


def quantile(values, q):
    if not values:
        return 0.0
    v = sorted(values)
    return float(v[min(len(v) - 1, int(q * (len(v) - 1) + 0.5))])


def analyze_trace(scratch, window, workload):
    """Merge bench and library spans; per-layer self time and busy ratio."""
    obs = read_obs_spans(scratch / "obs_trace.json")
    bench = read_bench_spans(scratch / "bench_spans.tsv")
    # Each bench thread planted a marker in its obs ring at t = index + 1.
    ring_of = {e["start"] - 1: e["tid"] for e in obs if e["name"] == "bench.thread"}
    obs = [e for e in obs if e["name"] != "bench.thread"]
    for e in bench:
        e["tid"] = ring_of.get(e["thread"], 1_000_000 + e["thread"])
    spans = obs + bench

    by_tid = {}
    for e in spans:
        e["child"] = 0
        by_tid.setdefault(e["tid"], []).append(e)
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["start"], -e["end"]))
        stack = []
        for e in evs:
            while stack and stack[-1]["end"] <= e["start"]:
                stack.pop()
            if stack and e["end"] <= stack[-1]["end"]:
                stack[-1]["child"] += e["end"] - e["start"]
            stack.append(e)

    t0, t1 = window
    win_ns = max(1, t1 - t0)
    inside = [e for e in spans if e["start"] >= t0 and e["end"] <= t1]
    table = {}
    for e in inside:
        row = table.setdefault(e["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        dur = e["end"] - e["start"]
        row["count"] += 1
        row["total_ms"] += dur * 1e-6
        row["self_ms"] += max(0, dur - e["child"]) * 1e-6
    for row in table.values():
        row["busy_ratio"] = row["total_ms"] * 1e6 / win_ns

    def durs_us(name):
        return [(e["end"] - e["start"]) * 1e-3 for e in inside if e["name"] == name]

    appends, syncs = durs_us("wal.append"), durs_us("wal.sync")
    layer = {
        "wal.append_p50_us": (quantile(appends, 0.5), len(appends)),
        "wal.fsync_p50_us": (quantile(syncs, 0.5), len(syncs)),
        "wal.fsync_p99_us": (quantile(syncs, 0.99), len(syncs)),
        "write_combiner.flush_busy_ratio": (table.get("combiner.flush", {}).get("busy_ratio", 0.0), 0),
    }

    events = []
    for tid in sorted(by_tid):
        for e in by_tid[tid]:
            ev = {"name": e["name"], "ph": "X", "pid": 1, "tid": tid,
                  "ts": e["start"] / 1000.0, "dur": (e["end"] - e["start"]) / 1000.0}
            if "id" in e:
                ev["args"] = {"op": e["id"], "parent": e["parent"]}
            events.append(ev)
    for thread, tid in ring_of.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                       "args": {"name": f"bench-{thread}"}})
    chrome = RUNS / f"trace-{workload}.json"
    chrome.write_text(json.dumps({"traceEvents": events}))
    return layer, table, chrome


# --------------------------------------------------------------------- run --

def run_once(spec, workload, seed, seconds, warmup, trace, smoke):
    scratch = RUNS / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PAM_")}
    if trace:
        env["PAM_TRACE_RING"] = str(TRACE_RING)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--warmup", str(warmup),
           "--trace", "1" if trace else "0", "--smoke", "1" if smoke else "0",
           "--scratch", str(scratch)]
    started = time.time()
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(scratch, ignore_errors=True)
        die(f"{workload}: no result within {RUN_TIMEOUT_S} s", 1)
    lines = p.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(p.stderr[-4000:])
        shutil.rmtree(scratch, ignore_errors=True)
        die(f"{workload}: benchmark process exited {p.returncode} without a result", 1)

    self_time, chrome = {}, None
    if trace:
        source = {k: (v["value"], v["samples"]) for k, v in out["layer"].items()}
        derived, self_time, chrome = analyze_trace(scratch, out["layer_window_ns"], workload)
        source.update(derived)
    else:
        source = {k: (v["value"], v["samples"]) for k, v in out["e2e"].items()}
    shutil.rmtree(scratch, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    correct = out["correct"]
    errors = list(out["errors"])
    for m in wanted:
        if m["name"] in source:
            value, samples = source[m["name"]]
        elif trace:
            value, samples = 0.0, 0  # a layer this workload does not exercise
        else:
            correct = False
            errors.append(f"end-to-end metric {m['name']} missing")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"], "samples": samples}
    extra = {k: {"value": v["value"], "unit": units.get(k, metric_unit(k)), "samples": v["samples"]}
             for k, v in out["extra"].items()}
    return {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "correct": bool(correct and p.returncode == 0), "exit": p.returncode,
        "attempted": out["attempted"], "failed": out["failed"], "errors": errors,
        "metrics": metrics, "extra": extra, "self_time": self_time,
        "chrome_trace": str(chrome) if chrome else None, "info": out["info"],
        "provenance": out["provenance"], "wall_s": round(time.time() - started, 2),
    }


def metric_unit(name):
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_ops_s", "ops/s"), ("_s", "s"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def sections(r):
    # A traced run's extras come from its untraced window; its metrics are
    # the per-layer ones, some of which share an extra's name. Report only
    # the traced window's numbers, so no row mixes the two windows.
    return ("metrics",) if r["trace"] else ("metrics", "extra")


def print_run(r):
    for section in sections(r):
        for name, m in r[section].items():
            n = f"  n={m['samples']}" if m["samples"] else ""
            print(f"{r['workload']} {name} {fmt(m['value'])} {m['unit']}{n}")
    if r["self_time"]:
        print(f"{r['workload']} trace: {r['chrome_trace']}")
        for name, row in sorted(r["self_time"].items(), key=lambda kv: -kv[1]["self_ms"]):
            print(f"{r['workload']}   {name:<26} count={row['count']:<8} "
                  f"self_ms={row['self_ms']:<12.3f} busy_ratio={row['busy_ratio']:.4f}")
    for e in r["errors"]:
        print(f"{r['workload']} ERROR {e}")


def machine_provenance():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip() or sha
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu}


def summarize(runs, only_metrics=False):
    summary = {}
    for r in runs:
        names = ("metrics",) if only_metrics else sections(r)
        for name, m in [kv for s in names for kv in r[s].items()]:
            row = summary.setdefault(r["workload"], {}).setdefault(
                name, {"unit": m["unit"], "values": [], "samples": []})
            row["values"].append(m["value"])
            row["samples"].append(m["samples"])
    for metrics in summary.values():
        for row in metrics.values():
            row["median"] = statistics.median(row["values"])
            row["q1"], row["q3"] = quartiles(row["values"])
    return summary


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ----------------------------------------------------------------- compare --

def compare(spec, path_a, path_b):
    fa, fb = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for key in ("seconds", "warmup", "smoke"):
        if fa["provenance"][key] != fb["provenance"][key]:
            die(f"{key} differs: {fa['provenance'][key]} vs {fb['provenance'][key]}")
    a, b = fa["summary"], fb["summary"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':<15} {'metric':<24} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'change':>8}  verdict")
    counts = {}
    for w in sorted(set(a) & set(b)):
        for name in sorted(set(a[w]) & set(b[w])):
            ra, rb = a[w][name], b[w][name]
            change = (rb["median"] - ra["median"]) / ra["median"] if ra["median"] else 0.0
            verdict = verdict_of(bounds.get(name), ra, rb)
            counts[verdict] = counts.get(verdict, 0) + 1
            side = lambda r: f"{r['median']:.5g} [{r['q1']:.5g}, {r['q3']:.5g}]"
            print(f"{w:<15} {name:<24} {side(ra):<34} {side(rb):<34} "
                  f"{change:>+8.2%}  {verdict}")
    print("verdicts: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


def verdict_of(m, ra, rb):
    """better / worse / within / unresolved against the metric's bound."""
    if m is None:
        return "-"  # not an end-to-end metric: no bound
    sign = 1.0 if m["better"] == "lower" else -1.0
    bound = m["bound"]
    worse_by = sign * (rb["median"] - ra["median"]) / ra["median"] if ra["median"] else 0.0
    spread = max((r["q3"] - r["q1"]) / r["median"] if r["median"] else 0.0 for r in (ra, rb))
    if sign > 0:
        all_better = max(rb["values"]) < min(ra["values"])
    else:
        all_better = min(rb["values"]) > max(ra["values"])
    if spread > bound:
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    parent_spread = (ra["q3"] - ra["q1"]) / ra["median"] if ra["median"] else 0.0
    pairs = list(zip(ra["values"], rb["values"]))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if -worse_by > max(bound, parent_spread) and wins >= 0.9 * len(pairs):
        return "better"
    return "within"


# -------------------------------------------------------------------- main --

def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured window; if given, must equal BENCHMARK.json run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add a traced window; report per-layer metrics")
    ap.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds S, S+1, ...")
    ap.add_argument("--out", help="write every run, medians and provenance as JSON")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs and 1 s windows")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)

    seconds, warmup = spec["run_seconds"], WARMUP_S
    if args.seconds is not None and args.seconds != seconds:
        die(f"--seconds {args.seconds:g} differs from run_seconds {seconds} in BENCHMARK.json")
    if args.smoke:
        seconds, warmup = SMOKE_SECONDS, SMOKE_WARMUP_S
    build()
    RUNS.mkdir(parents=True, exist_ok=True)
    workloads = [args.workload] if args.workload else WORKLOADS
    traces = [0, 1] if args.smoke else [args.trace]
    runs = []
    for w in workloads:
        for i in range(args.repeat):
            for trace in traces:
                r = run_once(spec, w, args.seed + i, seconds, warmup, trace, args.smoke)
                print_run(r)
                runs.append(r)

    ok = all(r["correct"] for r in runs)
    if args.out:
        Path(args.out).write_text(json.dumps({
            "provenance": {**machine_provenance(), **runs[0]["provenance"],
                           "seconds": seconds, "warmup": warmup, "smoke": args.smoke},
            "runs": runs, "summary": summarize(runs)}, indent=1))
    if len(runs) == 1:
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in runs[0]["metrics"].items()}
    else:
        metrics = {f"{w}.{name}": {"value": row["median"], "unit": row["unit"]}
                   for w, rows in summarize(runs, only_metrics=True).items()
                   for name, row in rows.items()}
    print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs), "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
