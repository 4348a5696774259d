#!/usr/bin/env python3
"""The repository's benchmark: builds simbench from this checkout and runs it.

    python3 perfbench/run.py --workload nfv_chain --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 3

With one workload, the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
`--workload all` runs every workload on the default and the held-out seed,
prints every end-to-end metric by name with its unit, and checks both golden
digests. The exit code is 0 only when every repetition passed its checks.

Every repetition is checked: its own counter checks in simbench, its digest
of simulated output against golden.json where the seed has a recorded digest,
and otherwise against the first repetition of the run. Each run also replays
the default seed once, unmeasured and in a process of its own, and checks it
against its golden digest. Failed repetitions are counted against the
repetitions attempted.

Workload and metric names and units come from BENCHMARK.json.

The end-to-end host times are scaled to a reference host speed. Right before
each repetition simbench times a fixed calibration loop that calls nothing in
src/, and a repetition's times are multiplied by CALIBRATION_REFERENCE_S over
the loop's time. The shared host's speed drifts by a quarter or more over
minutes, and the loop drifts with it, so the scaled times hold still while a
change to the simulator still moves them in full. The per-layer metrics stay
in raw host time; `bench.calib_loop_s` gives the loop's own time.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
# Layers a traced span is charged to: the prefix of its name.
LAYERS = tuple(n.split(".", 1)[1] for n in PER_LAYER if n.startswith("self_pct."))
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
BUILD_DEADLINE_S = 700  # the first run builds; build plus run must end within 900 s
RUN_DEADLINE_S = 170  # simbench itself; a run must end within 180 s
# The calibration loop's median host seconds on the host the bounds were set
# on (4 vCPUs of a KVM guest on a shared Xeon); it fixes the scale only.
CALIBRATION_REFERENCE_S = 0.07

# Per-call host times: metric -> (span name, divide by "items" or "calls").
CALL_METRICS = {
    "cache.read_range_ns_per_line": ("cache.read_range", "items"),
    "cache.write_range_ns_per_line": ("cache.write_range", "items"),
    "nfv.run_ns_per_pkt": ("nfv.run", "items"),
    "kvs.get_ns": ("kvs.get", "calls"),
    "kvs.set_ns": ("kvs.set", "calls"),
    "trace.generate_ns_per_pkt": ("trace.generate", "items"),
    "stats.summarize_ns_per_sample": ("stats.summarize", "items"),
    "stats.zipf_ns_per_key": ("stats.zipf", "items"),
}

SETUP_METRICS = {
    "setup.hierarchy_s": ("cache.setup",),
    "setup.buffers_s": ("mem.setup", "slice.setup", "kvs.setup"),
    "setup.dataplane_s": ("netio.setup", "nfv.setup"),
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build(deadline):
    """Configures (once) and builds simbench; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"run.py: no simulator sources at {ROOT / 'src'}; run from a full checkout")
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "simbench", "-j", "2"])
    for cmd in steps:
        # A process group of its own, so a timeout stops the compilers under cmake too.
        try:
            proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                    start_new_session=True)
        except OSError as e:
            log(f"run.py: cannot run {cmd[0]}: {e}")
            return None
        try:
            status = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            log(f"run.py: build timed out: {' '.join(cmd)}")
            return None
        if status != 0:
            log(f"run.py: build step failed: {' '.join(cmd)}")
            return None
    return out / "simbench"


def run_simbench(binary, args, deadline):
    """Runs simbench; returns (repetition dicts, exit status, peak RSS in KiB)."""
    proc = subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        with proc.stdout:
            text = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    reps = []
    for line in text.splitlines():
        try:
            reps.append(json.loads(line))
        except json.JSONDecodeError:
            log(f"run.py: unparsable simbench line: {line[:200]}")
            return reps, 1, usage.ru_maxrss
    return reps, proc.returncode, usage.ru_maxrss


def load_golden(path, size):
    try:
        return json.loads(Path(path).read_text())[size]
    except (OSError, KeyError, json.JSONDecodeError) as e:
        log(f"run.py: cannot read golden digests from {path}: {e}")
        return {}


def check_reps(reps, workload, golden):
    """Returns the number of failed repetitions; logs each failure."""
    expected = golden.get(workload, {})
    first = {}
    failed = 0
    for rep in reps:
        seed = str(rep["seed"])
        want = expected.get(seed)
        if want is None and rep["check"]:
            problem = f"no golden digest for check seed {seed}"
        elif want is not None and rep["digest"] != want:
            problem = f"digest {rep['digest']} != golden {want}"
        elif want is None and rep["digest"] != first.setdefault(seed, rep["digest"]):
            problem = f"digest {rep['digest']} != first repetition's {first[seed]}"
        elif rep["error"]:
            problem = rep["error"]
        else:
            continue
        failed += 1
        kind = "check repetition" if rep["check"] else "repetition"
        log(f"run.py: {workload} {kind} {rep['rep']} (seed {seed}) failed: {problem}")
    return failed


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps, peak_rss_kb):
    # Each repetition's host seconds at the reference host speed.
    scale = [CALIBRATION_REFERENCE_S / r["calib_s"] for r in reps]
    run_s = [(r["warmup_s"] + r["measure_s"]) * k for r, k in zip(reps, scale)]
    return {
        "setup_s": median([r["setup_s"] * k for r, k in zip(reps, scale)]),
        "run_s": median(run_s),
        "lines_per_s": median([r["run_lines"] / s for r, s in zip(reps, run_s)]),
        "ops_per_s": median([r["ops"] / (r["measure_s"] * k) for r, k in zip(reps, scale)]),
        # The calibration loop's stores stay resident through the run.
        "peak_rss_mb": (peak_rss_kb * 1024.0 - reps[0]["calib_bytes"]) / 2**20,
    }


def read_spans(path):
    """Parses simbench's span file into (spans by index, leaves)."""
    spans, leaves = {}, []
    for line in Path(path).read_text().splitlines():
        f = line.split()
        if f[0] == "span":
            spans[int(f[1])] = {"parent": int(f[2]), "name": f[3], "id": int(f[4]),
                                "start": float(f[5]), "end": float(f[6]), "items": int(f[7])}
        elif f[0] == "leaf":
            leaves.append({"parent": int(f[1]), "name": f[2], "calls": int(f[3]),
                           "ns": float(f[4]), "items": int(f[5])})
    return spans, leaves


def layer_of(name):
    return name.split(".", 1)[0]


def traced_rep_figures(spans, leaves):
    """Per traced repetition: per-call totals in the measured phase, seconds
    per span name, and self time per layer."""
    def root_and_phase(index):
        phase = None
        while spans[index]["parent"] != -1:
            if spans[index]["name"] in ("bench.setup", "bench.warmup", "bench.measure"):
                phase = spans[index]["name"]
            index = spans[index]["parent"]
        return index, phase

    reps = {i: {"calls": {}, "span_s": {}, "self_ns": dict.fromkeys(LAYERS, 0.0),
                "ns": s["end"] - s["start"]}
            for i, s in spans.items() if s["name"] == "bench.rep"}
    child_ns = {i: 0.0 for i in spans}
    for i, s in spans.items():
        if s["parent"] != -1:
            child_ns[s["parent"]] += s["end"] - s["start"]
    for leaf in leaves:
        if leaf["parent"] == -1:
            continue
        child_ns[leaf["parent"]] += leaf["ns"]
        root, phase = root_and_phase(leaf["parent"])
        rep = reps[root]
        rep["self_ns"][layer_of(leaf["name"])] += leaf["ns"]
        if phase == "bench.measure":
            total = rep["calls"].setdefault(leaf["name"], {"ns": 0.0, "calls": 0, "items": 0})
            for key in ("ns", "calls", "items"):
                total[key] += leaf[key]
    for i, s in spans.items():
        root, _ = root_and_phase(i)
        rep = reps[root]
        rep["self_ns"][layer_of(s["name"])] += s["end"] - s["start"] - child_ns[i]
        rep["span_s"][s["name"]] = rep["span_s"].get(s["name"], 0.0) + (s["end"] - s["start"]) / 1e9
    return list(reps.values())


def per_layer(reps, spans_path):
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    c = plain[0]["counts"]
    m = {}
    rep_figs = traced_rep_figures(*read_spans(spans_path))
    for metric, (name, per) in CALL_METRICS.items():
        values = [f["calls"][name]["ns"] / f["calls"][name][per]
                  for f in rep_figs if f["calls"].get(name, {}).get(per)]
        m[metric] = median(values)
    for metric, names in SETUP_METRICS.items():
        m[metric] = median([sum(f["span_s"].get(n, 0.0) for n in names) for f in rep_figs])
    for layer in LAYERS:
        m[f"self_pct.{layer}"] = median([100.0 * f["self_ns"][layer] / f["ns"] for f in rep_figs])
    m["bench.calib_loop_s"] = median([r["calib_s"] for r in plain])
    m["phase.warmup_s"] = median([r["warmup_s"] for r in plain])
    m["phase.measure_s"] = median([r["measure_s"] for r in plain])
    traced_run = median([r["warmup_s"] + r["measure_s"] for r in traced])
    plain_run = median([r["warmup_s"] + r["measure_s"] for r in plain])
    m["trace_overhead_pct"] = 100.0 * (traced_run / plain_run - 1.0)

    def ratio(num, den):
        return num / den if den else 0.0

    lines = c["l1_hits"] + c["l1_misses"] + c["dma_line_writes"] + c["dma_line_reads"]
    m["cache.l1_hit_ratio"] = ratio(c["l1_hits"], c["l1_hits"] + c["l1_misses"])
    m["cache.l2_hit_ratio"] = ratio(c["l2_hits"], c["l2_hits"] + c["l2_misses"])
    m["cache.llc_hit_ratio"] = ratio(c["llc_hits"], c["llc_hits"] + c["llc_misses"])
    m["cache.lines_per_op"] = ratio(lines, plain[0]["ops"])
    for name in ("dirty_writebacks", "dma_line_writes", "dma_line_reads", "remote_forwards",
                 "invalidations_sent", "directory_entries"):
        m[f"cache.{name}"] = c[name]
    lookups = c["slice_lookups"]
    m["uncore.slice_lookup_imbalance"] = ratio(max(lookups), sum(lookups) / len(lookups))
    m["netio.drop_ratio"] = ratio(c["drops"], c["delivered"] + c["drops"])
    m.update(plain[0]["sim"])
    return m


def run_workload(workload, seed, seconds, trace, size, golden_path):
    """Builds, runs and checks one workload; returns the result object."""
    binary = build(time.monotonic() + BUILD_DEADLINE_S)
    if binary is None:
        return None
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", workload] + (["--short"] if size == "short" else [])
    # The default seed's check runs in a process of its own, so the measured
    # process's peak RSS is that of its own seed.
    check, check_status, _ = run_simbench(
        binary, common + ["--seed", str(DEFAULT_SEED), "--check"], deadline)
    spans_path = build_dir() / f"spans-{workload}.txt"
    reps, status, peak_rss_kb = run_simbench(
        binary, common + ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                         "--spans", str(spans_path)], deadline)
    failed = check_reps(check + reps, workload, load_golden(golden_path, size))
    attempted = len(check) + len(reps)
    for code in (check_status, status):
        if code != 0:
            log(f"run.py: simbench exited with status {code}")
            attempted += 1
            failed += 1
    metrics = {}
    if failed == 0:
        if trace:
            values, units = per_layer(reps, spans_path), PER_LAYER
        else:
            values, units = end_to_end(reps, peak_rss_kb), END_TO_END
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}


def record_golden():
    """Writes the digests of the default and held-out seeds, both sizes."""
    binary = build(time.monotonic() + BUILD_DEADLINE_S)
    if binary is None:
        return 2
    golden = {}
    for size in ("full", "short"):
        for workload in WORKLOADS:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                args = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
                        "--trace", "0"] + (["--short"] if size == "short" else [])
                reps, status, _ = run_simbench(binary, args, time.monotonic() + RUN_DEADLINE_S)
                digests = {r["digest"] for r in reps}
                if status != 0 or len(digests) != 1 or any(r["error"] for r in reps):
                    log(f"run.py: {size} {workload} seed {seed} is not repeatable; not recorded")
                    return 1
                golden.setdefault(size, {}).setdefault(workload, {})[str(seed)] = digests.pop()
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    log(f"run.py: wrote {GOLDEN}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="rewrite the golden file from this tree's simulator; only for a "
                        "deliberate, documented change of simulated output")
    a = p.parse_args(argv)
    if not 0 <= a.seed < 2**63:
        p.error("--seed must be an integer in 0..2^63-1")
    if not 0 <= a.seconds <= 120:
        p.error("--seconds must be within 0..120")
    if a.record_golden:
        return record_golden()

    if a.workload != "all":
        result = run_workload(a.workload, a.seed, a.seconds, a.trace, "full", GOLDEN)
        if result is None:
            return 2
        print(json.dumps(result))
        return 0 if result["failed"] == 0 else 1

    # Every workload on the default and the held-out seed.
    attempted = failed = 0
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            r = run_workload(workload, seed, a.seconds, a.trace, "full", GOLDEN)
            if r is None:
                return 2
            attempted += r["attempted"]
            failed += r["failed"]
            verdict = "ok" if r["failed"] == 0 else f"FAILED {r['failed']}/{r['attempted']}"
            print(f"{workload} seed {seed}: {verdict}")
            for name, m in r["metrics"].items():
                print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
