#!/usr/bin/env python3
"""Interleaved benchmark pairs of two checkouts, summarized as BENCH_<label>.json.

Each checkout runs its own ``perfbench/run.py`` on its own ``src/``. Pair i
uses seed ``--seed0 + i`` on both sides; the parent runs first in even pairs
and the change first in odd pairs, and one run goes at a time:

    python3 tools/bench_pairs.py --parent ../parent --change . --label my_change \\
        --pairs 10 --seconds 30 --note "what the change does"
    python3 tools/bench_pairs.py --parent . --change . --label smoke --smoke \\
        --out /tmp/BENCH_smoke.json       # one tiny pair, checks the pipeline

Each run's full record is read back from ``<checkout>/.perfbench/``. The
output holds the method, the environment, per side the median and quartiles
of every end-to-end metric, the pairs each side wins, the median and quartiles
of the per-pair ratio change/parent (which host speed drifting between
sessions moves less than the medians), and for every job kind the median
time per side and the median over pairs of change/parent, and per run the
job kinds at its p50 and tail ranks, so a tail claim shows which job moved.
After the pairs,
each side runs every workload once more with ``--trace 1`` at the first
pair's seed, and the output lists each per-layer metric's parent and change
values, so it shows in which layer a change in time or work lands.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("estimate", "transfer", "conditions")
HIGHER_IS_BETTER = {"jobs_per_s", "bound_gmean"}
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, smoke: bool,
             trace: int = 0) -> dict:
    """One perfbench run in ``checkout``; returns the record it wrote."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=max(600.0, 20.0 * seconds))
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr[-2000:]}")
    path = checkout / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def metric_summary(name, runs):
    """Median, quartiles and pair wins of one metric over the paired runs."""
    higher = name in HIGHER_IS_BETTER
    out = {"better": "higher" if higher else "lower"}
    for side in SIDES:
        values = runs[side]
        q1, q3 = quartiles(values)
        out[side] = {"median": round(statistics.median(values), 6),
                     "q1": round(q1, 6), "q3": round(q3, 6)}
    base = out["parent"]["median"]
    out["change_over_parent"] = round(out["change"]["median"] / base, 4) if base else None
    sign = 1.0 if higher else -1.0
    diffs = [sign * (c - p) for p, c in zip(runs["parent"], runs["change"])]
    out["change_wins"] = sum(d > 0 for d in diffs)
    out["change_losses"] = sum(d < 0 for d in diffs)
    out["parent_iqr"] = round(out["parent"]["q3"] - out["parent"]["q1"], 6)
    # host speed drifts between sessions; a pair's two runs share the drift
    ratios = [c / p for p, c in zip(runs["parent"], runs["change"]) if p]
    if ratios:
        q1, q3 = quartiles(ratios)
        out["pair_ratio"] = {"median": round(statistics.median(ratios), 4),
                             "q1": round(q1, 4), "q3": round(q3, 4)}
    else:
        out["pair_ratio"] = None
    for side in SIDES:
        out[f"{side}_runs"] = [round(v, 6) for v in runs[side]]
    return out


def kind_summary(kind, records):
    """Per side the median over runs of one job kind's median time, and the
    median over pairs of change/parent (pairs missing the kind left out)."""
    times = {side: [r["kinds"][kind]["median_s"] if kind in r["kinds"] else None
                    for r in records[side]] for side in SIDES}
    out = {side: round(statistics.median(t for t in times[side] if t is not None), 4)
           for side in SIDES if any(t is not None for t in times[side])}
    ratios = [c / p for p, c in zip(times["parent"], times["change"])
              if p and c is not None]
    out["pair_ratio"] = round(statistics.median(ratios), 4) if ratios else None
    return out


def kinds_at_ranks(record):
    """The job kinds at a run's p50 and tail ranks (nearest rank).

    Each kind is ranked at its median time, once per slot it holds in a pass
    (its jobs over the run's passes); the tail is the run's own percentile.
    """
    passes = record["detail"]["passes"]
    ranked = sorted((k["median_s"], name) for name, k in record["kinds"].items()
                    for _ in range(round(k["jobs"] / passes)))

    def at(q):
        return ranked[max(1, math.ceil(q / 100 * len(ranked))) - 1][1]

    return {"p50": at(50), "tail": at(record["detail"]["tail_percentile"])}


def summarize(records, seeds, first):
    """Per-workload metrics and job-kind medians from records[side] lists."""
    names = sorted({m for side in SIDES for r in records[side] for m in r["end_to_end"]})
    metrics = {}
    for name in names:
        runs = {side: [r["end_to_end"].get(name) for r in records[side]] for side in SIDES}
        if all(v is not None for side in SIDES for v in runs[side]):
            metrics[name] = metric_summary(name, runs)
    kinds = sorted({k for side in SIDES for r in records[side] for k in r["kinds"]})
    kind_medians = {k: kind_summary(k, records) for k in kinds}
    at_ranks = {side: [kinds_at_ranks(r) for r in records[side]] for side in SIDES}
    return {"pairs": len(seeds), "seeds": seeds, "first_in_pair": first,
            "metrics": metrics, "kind_at_rank": at_ranks}, kind_medians


def checkout_state(path: Path, commit) -> str:
    """The commit a side ran, and a hash of its uncommitted changes to the code it ran."""
    if not commit:
        return "none (not a git checkout)"
    diff = subprocess.run(["git", "-C", str(path), "diff", "HEAD", "--binary", "--",
                           "src", "perfbench"], capture_output=True)
    if diff.returncode != 0 or not diff.stdout:
        return commit
    digest = hashlib.sha256(diff.stdout).hexdigest()[:16]
    return f"{commit} plus uncommitted changes (sha256 of git diff HEAD -- src perfbench: {digest})"


def environment(record):
    env = dict(record["environment"])
    for key in ("seed", "commit"):
        env.pop(key, None)
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--note", default="", help="one line on what the change does")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="one pair of perfbench --smoke runs")
    parser.add_argument("--out", type=Path, help="default: BENCH_<label>.json here")
    args = parser.parse_args(argv)
    pairs = 1 if args.smoke else args.pairs
    if pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")

    seeds = [args.seed0 + i for i in range(pairs)]
    first = ["parent" if i % 2 == 0 else "change" for i in range(pairs)]
    records = {w: {side: [] for side in SIDES} for w in WORKLOADS}
    for i, seed in enumerate(seeds):
        order = SIDES if first[i] == "parent" else SIDES[::-1]
        for w in WORKLOADS:
            for side in order:
                rec = run_once(checkouts[side], w, seed, args.seconds, args.smoke)
                records[w][side].append(rec)
                print(f"pair {i + 1}/{pairs} {w} {side}: "
                      + ", ".join(f"{k} {v:.6g}" for k, v in sorted(rec["end_to_end"].items())),
                      flush=True)

    per_layer = {}
    for w in WORKLOADS:
        traced = {side: run_once(checkouts[side], w, seeds[0], args.seconds, args.smoke,
                                 trace=1)["per_layer"]
                  for side in SIDES}
        per_layer[w] = {name: {side: traced[side].get(name) for side in SIDES}
                        for name in sorted(set(traced["parent"]) | set(traced["change"]))}
        print(f"traced {w}: {len(per_layer[w])} per-layer metrics", flush=True)

    summary, kind_medians = {}, {}
    for w in WORKLOADS:
        summary[w], kind_medians[w] = summarize(records[w], seeds, first)
    any_record = records[WORKLOADS[0]]["parent"][0]
    commits = {side: checkout_state(checkouts[side],
                                    records[WORKLOADS[0]][side][0]["environment"].get("commit"))
               for side in SIDES}
    command = ("python3 perfbench/run.py --workload <w> --seed <seed> "
               + ("--smoke" if args.smoke else f"--seconds {args.seconds:g}") + " --trace 0")
    out = {
        "label": args.label,
        "change": args.note,
        "method": {
            "command": command,
            "pairs_per_workload": pairs,
            "seeds": f"pair i uses seed {args.seed0} + i on both sides",
            "order": ("parent first in even pairs, change first in odd pairs; within a "
                      f"pair the workloads run {', '.join(WORKLOADS)}; one run at a time"),
            "sides": ("each side runs perfbench/run.py from its own checkout on its own "
                      f"src/; commits: parent {commits['parent']}, change {commits['change']}"),
            "statistics": ("per side: median and quartiles (inclusive method) of the runs; "
                           "change_wins/losses count pairs where the change is "
                           "better/worse in the metric's direction; pair_ratio is the "
                           "median and quartiles of change/parent over the pairs "
                           "(pairs with a zero parent value left out); "
                           "job_kind_median_s holds per side the median over runs of "
                           "each job kind's median time, and pair_ratio, the median "
                           "over pairs of change/parent; kind_at_rank names per "
                           "side and run the job kinds at the p50 and tail ranks, "
                           "ranking each kind's median time once per slot it holds "
                           "in a pass (its jobs over the run's passes)"),
            "per_layer": (f"after the pairs, one run per side and workload with --trace 1 "
                          f"and seed {seeds[0]}, parent first; per_layer holds the "
                          "per-layer metrics of those two runs"),
            "tool": "tools/bench_pairs.py",
        },
        "environment": environment(any_record),
        "workloads": summary,
        "job_kind_median_s": kind_medians,
        "per_layer": per_layer,
    }
    path = args.out or Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    for w in WORKLOADS:
        for name, m in summary[w]["metrics"].items():
            ratio = m["pair_ratio"]
            ratio = (f"pair ratio {ratio['median']:.4g} [{ratio['q1']:.4g}, {ratio['q3']:.4g}]"
                     if ratio else "pair ratio -")
            print(f"{w:10s} {name:12s} parent {m['parent']['median']:<10.6g} "
                  f"change {m['change']['median']:<10.6g} "
                  f"wins {m['change_wins']}/{pairs} losses {m['change_losses']} {ratio}")
        for side in SIDES:
            ranks = summary[w]["kind_at_rank"][side]
            print(f"{w:10s} {side:6s} p50 kinds {[r['p50'] for r in ranks]} "
                  f"tail kinds {[r['tail'] for r in ranks]}")
        for kind, k in kind_medians[w].items():
            print(f"{w:10s} {kind:40s} parent {k.get('parent', '-')} "
                  f"change {k.get('change', '-')} pair ratio {k['pair_ratio']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
