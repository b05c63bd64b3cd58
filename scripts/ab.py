#!/usr/bin/env python3
"""Paired A/B of the repository benchmark: a revision against the working tree.

    scripts/ab.py REV [--workload W] [--seeds 42,1009] [--pairs N]
                      [--seconds S] [--trace 0|1]

Exports REV (git archive) into .bench_build/ab/<sha>/ once and runs each
side's own perfbench/run.py in turn, so each side builds and measures
with its own harness. Host drift on a shared VM is larger than most
changes, so runs come in pairs, one per side back to back, and the side
that goes first flips on every pair (the first run of a pair tends to
win). Per workload, seed and metric it prints one Markdown row: both
medians with quartiles, the median and range of the paired ratios
(working tree / REV), a bootstrap 95% interval of their median, how many
pairs the working tree won, and the runs that failed. With --trace 0, a
pair whose sim_cycles differ is flagged: a host-only change must not
move them.

`scripts/ab.py HEAD` on a clean tree is an A/A calibration: its
intervals should contain 1.0.
"""

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import metrics as m  # noqa: E402

AB_DIR = ROOT / ".bench_build" / "ab"
SIDES = ("base", "change")
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 1


# --- math, free of I/O (scripts/test_ab.py) -------------------------------

def pair_orders(pairs):
    """Which side runs first in each pair: base first on even pairs,
    change first on odd ones."""
    return [SIDES if i % 2 == 0 else SIDES[::-1] for i in range(pairs)]


def paired_ratios(base, change):
    """change / base per pair; pairs with a zero or missing side are
    dropped (a ratio with nothing to divide by is undefined)."""
    out = []
    for b, c in zip(base, change):
        r = None if b is None or c is None else m.ratio(c, b)
        if r is not None:
            out.append(r)
    return out


def bootstrap_interval(ratios, resamples=BOOTSTRAP_RESAMPLES,
                       seed=BOOTSTRAP_SEED):
    """Percentile bootstrap 95% interval of the median of ratios, from a
    fixed-seed generator so a table reprints identically. None for no
    ratios."""
    if not ratios:
        return None
    rng = random.Random(seed)
    medians = sorted(m.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(resamples))
    return (medians[int(0.025 * (resamples - 1))],
            medians[int(0.975 * (resamples - 1))])


def wins(ratios, better):
    """Pairs the change side won: ratio above 1 for a higher-is-better
    metric, below 1 for a lower-is-better one."""
    if better == "higher":
        return sum(r > 1 for r in ratios)
    return sum(r < 1 for r in ratios)


def fmt(v):
    """Six significant digits, but every digit of a large count such as
    sim_cycles, so a one-cycle difference shows."""
    return f"{v:.1f}" if abs(v) >= 1e5 else f"{v:.6g}"


def describe(values):
    """'median [q1-q3]' of a list of numbers, or the one value."""
    if not values:
        return "-"
    if len(values) < 2:
        return fmt(values[0])
    q1, q3 = m.quartiles(values)
    return f"{fmt(m.median(values))} [{fmt(q1)}-{fmt(q3)}]"


def summarize(pairs, metric, better):
    """One row's numbers for metric over pairs, each a {side: result}
    dict where a result is run.py's last line (or None if it did not
    print one)."""
    values = {side: [value(p[side], metric) for p in pairs]
              for side in SIDES}
    ratios = paired_ratios(values["base"], values["change"])
    return {
        "pairs": len(pairs),
        "base": [v for v in values["base"] if v is not None],
        "change": [v for v in values["change"] if v is not None],
        "ratios": ratios,
        "interval": bootstrap_interval(ratios),
        "wins": wins(ratios, better),
    }


def value(result, metric):
    if not result:
        return None
    entry = result["metrics"].get(metric)
    return None if entry is None else entry["value"]


def failed_runs(pairs, side):
    """Runs of side that failed: a process that printed no result, or a
    result with failed simulations."""
    return sum(1 for p in pairs
               if not p[side] or p[side].get("failed", 0) or
               not p[side].get("correct", False))


def cycle_mismatches(pairs):
    """Indices of pairs whose sim_cycles differ between the sides."""
    out = []
    for i, p in enumerate(pairs):
        b, c = value(p["base"], "sim_cycles"), value(p["change"], "sim_cycles")
        if b is not None and c is not None and b != c:
            out.append(i)
    return out


def row(label, metric, s, failed):
    interval = ("-" if s["interval"] is None
                else f"[{s['interval'][0]:.3f}, {s['interval'][1]:.3f}]")
    if s["ratios"]:
        ratio = (f"{m.median(s['ratios']):.3f}x "
                 f"({min(s['ratios']):.3f}-{max(s['ratios']):.3f})")
    else:
        ratio = "-"
    return (f"| {label} | `{metric}` | {s['pairs']} | {describe(s['base'])} "
            f"| {describe(s['change'])} | {ratio} | {interval} "
            f"| {s['wins']}/{len(s['ratios'])} | {failed[0]} / {failed[1]} |")


HEADER = ("| workload, seed | metric | pairs | base median [quartiles] "
          "| change median [quartiles] | ratio median (range) "
          "| 95% interval | change wins | failed (base / change) |\n"
          "|---|---|---|---|---|---|---|---|---|")


# --- I/O ---------------------------------------------------------------------

def log(*args):
    print(*args, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(rev):
    """The exported tree of rev under .bench_build/ab/, made once."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = AB_DIR / sha[:12]
    done = tree / ".ab_exported"
    if not done.is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise SystemExit(f"ab: git archive {sha} failed")
        done.touch()
    return sha, tree


def run_side(tree, workload, seed, args):
    """One run.py run in tree; its last stdout line, or None."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    result = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    lines = result.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def directions(trace):
    """{metric: 'higher'|'lower'} from this tree's BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {e["name"]: e["better"] for e in bench[key]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="revision to compare the working "
                                    "tree against")
    parser.add_argument("--workload", action="append",
                        help="workload (repeatable; default: every "
                             "BENCHMARK.json workload)")
    parser.add_argument("--seeds", default="42,1009",
                        help="comma-separated seeds (default 42,1009)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs per workload and seed (default 10)")
    parser.add_argument("--seconds", type=float, default=8,
                        help="run.py --seconds of each run (default 8)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: compare the per-layer metrics")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workload or [
        w["name"] for w in
        json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    better = directions(args.trace)

    sha, base_tree = export(args.rev)
    trees = {"base": base_tree, "change": ROOT}
    log(f"ab: base {sha[:12]} at {base_tree}, change = working tree")

    print(f"base {sha[:12]}, change = working tree, {args.pairs} pairs, "
          f"--seconds {args.seconds:g}, --trace {args.trace}")
    print(HEADER)
    mismatched = []
    for workload in workloads:
        for seed in seeds:
            pairs = []
            for i, order in enumerate(pair_orders(args.pairs)):
                pair = {}
                for side in order:
                    pair[side] = run_side(trees[side], workload, seed, args)
                log(f"ab: {workload} seed {seed} pair {i + 1}/{args.pairs} "
                    f"({order[0]} first) done")
                pairs.append(pair)
            failed = (failed_runs(pairs, "base"),
                      failed_runs(pairs, "change"))
            for metric, direction in better.items():
                print(row(f"{workload} {seed}", metric,
                          summarize(pairs, metric, direction), failed),
                      flush=True)
            for i in cycle_mismatches(pairs):
                mismatched.append(f"{workload} seed {seed} pair {i + 1}")
    for what in mismatched:
        print(f"FLAG: sim_cycles differ in {what}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
