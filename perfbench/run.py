#!/usr/bin/env python3
"""The repository benchmark: simulator throughput and modelled runtime.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/harness.cc against the simulator sources (first use
only, into .bench_build/perfbench), runs one workload in one harness
process, checks every simulation's output and prints each metric by
name with its unit. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics.

Metric names ending in _s, _ns or _per_s use host time (what the
simulator costs); _ref_s is host time restated at a fixed host speed by
the probes timed beside each run; everything counted in cycles, events
or pages is simulated and repeats exactly for a fixed seed. See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics as m  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

# BENCHMARK.json lists irregular-walks and tenant-paging. regular-data is
# the "no change" control for walk-path work, run by hand: the host-speed
# probe does not steady it enough for the bound (README, "Workloads").
WORKLOADS = ("irregular-walks", "regular-data", "tenant-paging")
DEFAULT_SEED = 42
HELD_OUT_SEED = 1009
TICKS_PER_CYCLE = 500          # 2 GHz GPU clock, 1 ps ticks
# Fig. 8 geomean speedup of simt-aware over fcfs, read off the bars.
PAPER_FIG8_GEOMEAN = {"irregular-walks": 1.30, "regular-data": 1.00}
HARNESS_TIMEOUT_S = 170
PROBES_PER_RUN = 2             # harness.cc probes before and after run()
# One host-speed probe on the reference host: about the median of a
# 4-thread Xeon VM, so reference seconds read close to its seconds.
REFERENCE_PROBE_S = 0.015

END_TO_END = {
    "sim_insts_per_ref_s": "inst/ref-s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_cycles": "cycles",
}

PICK_REASONS = ("immediate", "policy", "batch", "sjf", "aging",
                "overdraft", "speculative")

PER_LAYER = {
    "failed_ratio": "runs/runs",
    "workload.generate_s": "s",
    "workload.footprint_pages": "pages",
    "system.build_s": "s",
    "system.load_s": "s",
    "system.run_s": "s",
    "host.probe_ms": "ms",
    "sim.insts_per_s": "inst/s",
    "sim.events": "events",
    "sim.events_per_inst": "events/inst",
    "sim.ns_per_event": "ns/event",
    "gpu.stall_cycles": "cycles",
    "gpu.active_wavefronts_per_epoch": "wavefronts",
    "gpu.line_accesses": "count",
    "tlb.requests": "count",
    "tlb.l1_hit_ratio": "ratio",
    "tlb.l2_hit_ratio": "ratio",
    "tlb.merged": "count",
    "tlb.iommu_requests": "count",
    "iommu.tlb_hit_ratio": "ratio",
    "iommu.walks": "count",
    "iommu.accesses_per_walk": "accesses/walk",
    "iommu.pwc_hit_ratio": "ratio",
    "iommu.buffer_occupancy_avg": "entries",
    "iommu.overflowed": "count",
    "iommu.queue_wait_avg_cycles": "cycles",
    "iommu.walker_service_avg_cycles": "cycles",
    "iommu.queue_wait_p50_cycles": "cycles",
    "iommu.queue_wait_p99_cycles": "cycles",
    "iommu.walker_service_p99_cycles": "cycles",
    "iommu.latency_gap_cycles": "cycles",
    "iommu.interleaved_fraction": "ratio",
    "iommu.prefetches": "count",
    "iommu.prefetch_accuracy": "ratio",
    "iommu.prefetch_coverage": "ratio",
    "iommu.prefetch_pollution": "ratio",
    "core.dispatches": "count",
    **{f"core.pick_{r}_share": "ratio" for r in PICK_REASONS},
    "core.simt_speedup_geomean": "x",
    "core.tenant_wait_jain": "ratio",
    "mem.dram_reads": "count",
    "mem.dram_walk_share": "ratio",
    "mem.dram_row_hit_ratio": "ratio",
    "mem.dram_latency_avg_cycles": "cycles",
    "mem.dram_queue_depth_avg": "requests",
    "mem.l1d_hit_ratio": "ratio",
    "mem.l2d_hit_ratio": "ratio",
    "vm.faults_raised": "count",
    "vm.faults_coalesced": "count",
    "vm.fault_batches": "count",
    "vm.pages_migrated": "count",
    "vm.pages_evicted": "count",
    "vm.service_retries": "count",
    "vm.fault_latency_avg_cycles": "cycles",
    "vm.resident_peak_ratio": "ratio",
    "trace.events": "events",
    "trace.dropped": "events",
    "trace.overhead_ratio": "x",
}


class BenchError(Exception):
    """The benchmark could not produce a result (build or harness)."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "src" / "system" / "system.hh").is_file():
        raise BenchError(f"simulator sources not found under {ROOT}")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (BUILD / "CMakeCache.txt").is_file():
        _check_call(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    _check_call(["cmake", "--build", str(BUILD), "--target",
                 "perfbench_harness", "-j", jobs])
    return BUILD / "perfbench_harness"


def _check_call(cmd):
    # Build chatter goes to stderr: stdout's last line is the result.
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr)
    if result.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {result.returncode}")


def run_harness(harness, args):
    cmd = [str(harness), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--scale", args.scale]
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=sys.stderr, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"harness exceeded {HARNESS_TIMEOUT_S} s") from exc
    if result.returncode != 0:
        raise BenchError(f"harness exited {result.returncode}")
    return json.loads(result.stdout)


# --- per-simulation views --------------------------------------------------

def host_times(doc):
    """{sim id: {span name: seconds}}. Setup spans (generate, build,
    load) are summed within each repetition, then the median over
    repetitions is taken; 'setup' is the median of their per-rep sum.
    'system.run' is the run of the System that the last setup built, and
    'host.probe' the mean of the two probes beside it."""
    per_rep = {}
    for span in doc["spans"]:
        if span["run"] < 0:
            continue
        reps = per_rep.setdefault(span["run"], {})
        names = reps.setdefault(span["rep"], {})
        names[span["name"]] = (names.get(span["name"], 0.0)
                               + span["end"] - span["start"])
    setup_names = ("workload.generate", "system.build", "system.load")
    times = {}
    for run, reps in per_rep.items():
        t = {}
        for name in setup_names:
            t[name] = m.median([r.get(name, 0.0) for r in reps.values()])
        t["setup"] = m.median([sum(r.get(n, 0.0) for n in setup_names)
                               for r in reps.values()])
        last = reps[max(reps)]
        t["system.run"] = last.get("system.run", 0.0)
        t["host.probe"] = last["host.probe"] / PROBES_PER_RUN
        times[run] = t
    return times


def canonical_stats(sim):
    """RunStats without the tracer's own fields: tracing is observation
    only, so traced and untraced runs must agree on everything else."""
    return {k: v for k, v in sim["stats"].items()
            if k not in ("traced", "trace_digest", "trace_events",
                         "trace_dropped")}


def check(doc):
    """{sim id: [failure, ...]} for every simulation the harness ran."""
    failures = {}
    first_of = {}
    for sim in doc["sims"]:
        st, why = sim["stats"], []
        if not st["audited"] or st["audit"]["violations"] != 0:
            why.append(f"audit: {st.get('audit')}")
        if st["events_executed"] >= doc["max_events"]:
            why.append("hit the max_events guard")
        started = st["walk_requests"] + sim["components"]["iommu"]["prefetches"]
        if st["walks_completed"] != started:
            why.append(f"{st['walks_completed']} walks completed of "
                       f"{started} started")
        if st["instructions"] != sim["expected_instructions"]:
            why.append(f"{st['instructions']} instructions, expected "
                       f"{sim['expected_instructions']}")
        if sim["traced"] and sim["trace"]["dropped"] != 0:
            why.append(f"tracer dropped {sim['trace']['dropped']} events")
        # Every repetition and tracing mode of one job must reproduce
        # the first run's RunStats exactly.
        key = job(sim)
        if key not in first_of:
            first_of[key] = sim
        elif canonical_stats(sim) != canonical_stats(first_of[key]):
            why.append(f"RunStats differ from run {first_of[key]['id']}")
        failures[sim["id"]] = why
    return failures


# --- metrics ---------------------------------------------------------------

def job(sim):
    """What a simulation runs: the same job gives the same RunStats."""
    return sim["app"], sim["scheduler"], sim["seed"]


def passes(doc, role):
    """{pass index: [sims]} for the given role."""
    out = {}
    for sim in doc["sims"]:
        if sim["role"] == role:
            out.setdefault(sim["pass"], []).append(sim)
    return out


def ref_s(times, sim, key):
    """A host time of a simulation ('system.run' or 'setup') in reference
    seconds, scaled by the probes beside its run."""
    t = times[sim["id"]]
    return m.reference_seconds(t[key], t["host.probe"], REFERENCE_PROBE_S)


def end_to_end(doc, times):
    """Sums over the jobs of a pass, each job taken as the median over
    the passes that ran it, in reference seconds: run time, and the
    median of each pass's setups."""
    jobs = {}
    for sim in doc["sims"]:
        if sim["role"] == "measure":
            jobs.setdefault(job(sim), []).append(sim)
    first = [sims[0]["stats"] for sims in jobs.values()]
    run_ref_s = sum(m.median([ref_s(times, s, "system.run") for s in sims])
                    for sims in jobs.values())
    setup_s = sum(m.median([ref_s(times, s, "setup") for s in sims])
                  for sims in jobs.values())
    return {
        "sim_insts_per_ref_s": (sum(st["instructions"] for st in first)
                                / run_ref_s),
        "setup_s": setup_s,
        # The probe's rings stay resident all run; they are not the
        # simulator's.
        "peak_rss_mb": (doc["peak_rss_kb"] * 1024 - doc["probe_bytes"])
                       / 2**20,
        "sim_cycles": sum(st["runtime_ticks"] for st in first)
                      / TICKS_PER_CYCLE,
    }


def _sum(sims, fn):
    return sum(fn(s) for s in sims)


def _group_sum(sims, group, prefix, field):
    """Sums field over the child groups of a component whose name starts
    with prefix (e.g. every l1tlbN of gpu_tlb)."""
    return sum(v[field] for s in sims
               for k, v in s["components"][group].items()
               if k.startswith(prefix) and isinstance(v, dict))


def _cycles(ticks):
    return None if ticks is None else ticks / TICKS_PER_CYCLE


def per_layer(doc, times, failures):
    """Per-layer metrics of the first untraced pass; (T) metrics come from
    the traced pass."""
    sims = min(passes(doc, "measure").items())[1]
    traced = min(passes(doc, "traced").items())[1]
    prefetching = [s for s in sims if "prefetch" in s["stats"]]

    def comp(group, key):
        return _sum(sims, lambda s: s["components"][group][key])

    def avg(group, key):
        return m.weighted_mean((s["components"][group][key]["mean"],
                                s["components"][group][key]["count"])
                               for s in sims)

    def stat(key):
        return _sum(sims, lambda s: s["stats"][key])

    def lat(key):
        return m.weighted_mean((s["stats"]["latency_breakdown"][key]["avg"],
                                s["stats"]["latency_breakdown"][key]["samples"])
                               for s in sims)

    def host(of, key):
        return _sum(of, lambda s: times[s["id"]][key])

    def gmmu(key):
        return _sum(sims, lambda s: s["stats"].get("gmmu", {}).get(key, 0))

    def pf(key):
        return _sum(prefetching, lambda s: s["stats"]["prefetch"][key])

    def cache(key):
        return _sum(sims, lambda s: s["caches"][key])

    insts, events = stat("instructions"), stat("events_executed")
    run_s = host(sims, "system.run")
    walks = [s["stats"]["walks"] for s in sims]
    multi = sum(w["multi_walk_instructions"] for w in walks)
    l1 = [_group_sum(sims, "gpu_tlb", "l1tlb", f) for f in ("hits", "misses")]
    l2 = [_group_sum(sims, "gpu_tlb", "l2tlb", f) for f in ("hits", "misses")]
    pwc = [_group_sum(sims, "iommu", "pwc", f) for f in ("hits", "misses")]
    row = [comp("dram", k) for k in ("row_hits", "row_misses",
                                      "row_conflicts")]

    picks = {r: _sum(traced, lambda s: s["trace"]["picks"].get(r, 0))
             for r in PICK_REASONS}
    dispatches = _sum(traced, lambda s: sum(s["trace"]["picks"].values()))
    wait = m.merge_counts(s["trace"]["queue_wait"] for s in traced)
    service = m.merge_counts(s["trace"]["service"] for s in traced)

    fcfs = {s["app"]: s["stats"]["runtime_ticks"] for s in sims
            if s["scheduler"] == "fcfs"}
    simt = {s["app"]: s["stats"]["runtime_ticks"] for s in sims
            if s["scheduler"] == "simt-aware"}
    speedups = [fcfs[a] / simt[a] for a in fcfs if a in simt]

    tenant_waits = [t["queue_wait_ticks"] / t["dispatches"]
                    for s in sims for t in s["stats"].get("tenants", [])
                    if t["dispatches"] > 0]

    out = {
        "failed_ratio": (sum(1 for why in failures.values() if why)
                         / len(failures)),
        "workload.generate_s": host(sims, "workload.generate"),
        "workload.footprint_pages": _sum(sims, lambda s: s["footprint_pages"]),
        "system.build_s": host(sims, "system.build"),
        "system.load_s": host(sims, "system.load"),
        "system.run_s": run_s,
        "host.probe_ms": m.median([times[s["id"]]["host.probe"]
                                   for s in sims]) * 1e3,
        "sim.insts_per_s": m.ratio(insts, run_s),
        "sim.events": events,
        "sim.events_per_inst": m.ratio(events, insts),
        "sim.ns_per_event": m.ratio(run_s * 1e9, events),
        "gpu.stall_cycles": stat("stall_ticks") / TICKS_PER_CYCLE,
        "gpu.active_wavefronts_per_epoch": avg("gpu_tlb", "epoch_wavefronts"),
        "gpu.line_accesses": _group_sum(sims, "gpu", "cu", "line_accesses"),
        "tlb.requests": comp("gpu_tlb", "requests"),
        "tlb.l1_hit_ratio": m.ratio(l1[0], sum(l1)),
        "tlb.l2_hit_ratio": m.ratio(l2[0], sum(l2)),
        "tlb.merged": comp("gpu_tlb", "l1_merged") + comp("gpu_tlb", "l2_merged"),
        "tlb.iommu_requests": comp("gpu_tlb", "iommu_requests"),
        "iommu.tlb_hit_ratio": m.ratio(comp("iommu", "tlb_hits"),
                                       comp("iommu", "requests")),
        "iommu.walks": stat("walk_requests"),
        "iommu.accesses_per_walk": avg("iommu", "walk_accesses"),
        "iommu.pwc_hit_ratio": m.ratio(pwc[0], sum(pwc)),
        "iommu.buffer_occupancy_avg": avg("iommu", "buffer_occupancy"),
        "iommu.overflowed": comp("iommu", "overflowed"),
        "iommu.queue_wait_avg_cycles": _cycles(lat("queue_wait")),
        "iommu.walker_service_avg_cycles": _cycles(lat("walker_service")),
        "iommu.queue_wait_p50_cycles": _cycles(m.percentile(wait, 50)),
        "iommu.queue_wait_p99_cycles": _cycles(m.percentile(wait, 99)),
        "iommu.walker_service_p99_cycles": _cycles(m.percentile(service, 99)),
        "iommu.latency_gap_cycles": _cycles(m.weighted_mean(
            (w["avg_latency_gap"], w["multi_walk_instructions"])
            for w in walks)),
        "iommu.interleaved_fraction": m.ratio(
            sum(w["interleaved_instructions"] for w in walks), multi),
        "iommu.prefetches": comp("iommu", "prefetches"),
        "iommu.prefetch_accuracy": m.ratio(pf("useful"), pf("completed")),
        "iommu.prefetch_coverage": m.ratio(
            pf("useful"), pf("useful") + _sum(
                prefetching, lambda s: s["stats"]["walk_requests"])),
        "iommu.prefetch_pollution": m.ratio(pf("evicted_unused"),
                                            pf("completed")),
        "core.dispatches": dispatches,
        **{f"core.pick_{r}_share": m.ratio(picks[r], dispatches)
           for r in PICK_REASONS},
        "core.simt_speedup_geomean": m.geomean(speedups),
        "core.tenant_wait_jain": m.jain(tenant_waits),
        "mem.dram_reads": comp("dram", "reads"),
        "mem.dram_walk_share": m.ratio(comp("dram", "walk_accesses"),
                                       comp("dram", "reads")
                                       + comp("dram", "writes")),
        "mem.dram_row_hit_ratio": m.ratio(row[0], sum(row)),
        "mem.dram_latency_avg_cycles": _cycles(avg("dram", "latency")),
        "mem.dram_queue_depth_avg": avg("dram", "queue_depth"),
        "mem.l1d_hit_ratio": m.ratio(cache("l1d_hits"),
                                     cache("l1d_hits") + cache("l1d_misses")),
        "mem.l2d_hit_ratio": m.ratio(cache("l2d_hits"),
                                     cache("l2d_hits") + cache("l2d_misses")),
        "vm.faults_raised": gmmu("faults_raised"),
        "vm.faults_coalesced": gmmu("faults_coalesced"),
        "vm.fault_batches": gmmu("batches"),
        "vm.pages_migrated": gmmu("pages_migrated"),
        "vm.pages_evicted": gmmu("pages_evicted"),
        "vm.service_retries": gmmu("service_retries"),
        "vm.fault_latency_avg_cycles": _cycles(m.weighted_mean(
            (s["stats"]["gmmu"]["fault_latency"]["avg"],
             s["stats"]["gmmu"]["fault_latency"]["samples"])
            for s in sims if "gmmu" in s["stats"])),
        "vm.resident_peak_ratio": m.ratio(gmmu("resident_peak"),
                                          gmmu("frame_cap")),
        "trace.events": _sum(traced, lambda s: s["trace"]["recorded"]),
        "trace.dropped": _sum(traced, lambda s: s["trace"]["dropped"]),
        "trace.overhead_ratio": m.ratio(host(traced, "system.run"), run_s),
    }
    assert list(out) == list(PER_LAYER), "metric table out of sync"
    return out


# --- output ----------------------------------------------------------------

def write_spans(doc, path):
    """Chrome trace_event rendition of the host spans (chrome://tracing,
    ui.perfetto.dev); one row per simulation."""
    events = [{"name": s["name"], "ph": "X", "pid": 1,
               "tid": max(s["run"], -1) + 1,
               "ts": s["start"] * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
               "args": {"run": s["run"], "rep": s["rep"],
                        "parent": s["parent"]}}
              for s in doc["spans"]]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))


def report(doc, values, units, failures):
    sims = doc["sims"]
    log(f"workload {doc['workload']}  seed {doc['seed']}  scale "
        f"{doc['scale']}  {len(sims)} simulations  "
        f"{doc['hardware_threads']} hardware threads")
    for name, value in values.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:36s} {shown:>14s} {units[name]}")
    paper = PAPER_FIG8_GEOMEAN.get(doc["workload"])
    if values.get("core.simt_speedup_geomean") is not None and paper:
        print(f"  (paper Fig. 8 geomean: ~{paper:.2f}, read off the bars; "
              f"the model has no other validation, so no error figure is "
              f"given)")
    for sim in sims:
        for why in failures[sim["id"]]:
            print(f"FAILED run {sim['id']} {sim['app']} {sim['scheduler']}: "
                  f"{why}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long input for smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    try:
        doc = run_harness(build(), args)
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 2

    times = host_times(doc)
    failures = check(doc)
    if args.trace:
        values, units = per_layer(doc, times, failures), PER_LAYER
        spans = BUILD / f"spans-{args.workload}-s{args.seed}.json"
        write_spans(doc, spans)
        log(f"host spans written to {spans}")
    else:
        values, units = end_to_end(doc, times), END_TO_END
    report(doc, values, units, failures)

    failed = sum(1 for why in failures.values() if why)
    # The result line must hold numbers: an undefined ratio (zero base)
    # prints as null above and as 0 here.
    result = {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {name: {"value": 0 if v is None else v,
                           "unit": units[name]}
                    for name, v in values.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
