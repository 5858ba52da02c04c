#!/usr/bin/env python3
"""Multi-seed runs, spreads, A/B comparison and the sensitivity self-test.

    python3 perfbench/ab.py runs --workload W --seeds 1-10 --out A.jsonl
                                 [--slowdown 0.1] [--trace 0]
    python3 perfbench/ab.py spread A.jsonl
    python3 perfbench/ab.py compare BASE.jsonl NEW.jsonl
    python3 perfbench/ab.py baseline A.jsonl [B.jsonl ...] --commit C --out perfbench/baseline.json
    python3 perfbench/ab.py selftest --workload W --seeds 1-5 [--slowdown 0.1]

`runs` calls run.py once per seed (run_seconds from BENCHMARK.json) and
appends each result line, tagged with workload and seed, to a JSON-lines
file. `spread` prints each metric's median, quartiles and interquartile
spread as a share of the median (statistics.quantiles, n=4). `compare`
flags each end-to-end metric as REGRESSION or, on runs paired by seed,
as a resolved "slower" change (see compare()); it exits 1 if any metric
is flagged. `selftest` runs the seeds twice unmodified and once with an
injected slowdown, interleaved, and passes when only the slowed set is
flagged.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_seeds(workload, seeds, out, slowdown=0.0, trace=0):
    seconds = spec()["run_seconds"]
    with open(out, "a") as f:
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--slowdown", str(slowdown)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
            result = json.loads(last)
            result.update(workload=workload, seed=seed, slowdown=slowdown)
            f.write(json.dumps(result) + "\n")
            f.flush()
            print("%s seed %d: %s" % (workload, seed, ", ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)


def load(paths):
    rows = []
    for path in paths:
        with open(path) as f:
            rows.extend(json.loads(line) for line in f if line.strip())
    return rows


def by_workload(rows):
    groups = {}
    for row in rows:
        for name, m in row["metrics"].items():
            groups.setdefault(row["workload"], {}).setdefault(name, []).append(m["value"])
    return groups


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def cmd_spread(args):
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    ok = True
    for workload, metrics in sorted(by_workload(load(args.files)).items()):
        print("== %s" % workload)
        for name, values in metrics.items():
            s = summary(values)
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                note = "ok" if s["spread"] < bound / 3 else (
                    "WITHIN BOUND" if s["spread"] <= bound else "TOO WIDE")
                ok &= s["spread"] <= bound
            print("  %-18s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% (n=%d) bound %s %s"
                  % (name, s["median"], s["q1"], s["q3"], 100 * s["spread"], s["n"],
                     bound, note))
    return 0 if ok else 1


def worse_share(better, base, new):
    return (new - base) / abs(base) if better == "lower" else (base - new) / abs(base)


def signed_rank_p(shifts):
    """One-sided exact p-value of the Wilcoxon signed-rank test that the
    paired changes lean positive (worse). Zero changes are dropped; tied
    magnitudes share their mean rank."""
    shifts = [x for x in shifts if x != 0]
    if not shifts:
        return 1.0
    order = sorted(range(len(shifts)), key=lambda i: abs(shifts[i]))
    ranks = [0] * len(shifts)  # doubled, so that mean ranks stay integers
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and abs(shifts[order[j + 1]]) == abs(shifts[order[i]]):
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = i + j + 2
        i = j + 1
    observed = sum(r for r, x in zip(ranks, shifts) if x > 0)
    counts = {0: 1}  # rank sum -> number of sign patterns reaching it
    for r in ranks:
        step = dict(counts)
        for total, n in counts.items():
            step[total + r] = step.get(total + r, 0) + n
        counts = step
    return sum(n for total, n in counts.items() if total >= observed) / 2 ** len(ranks)


# A paired change counts as resolved when it is unlikely to be noise and is
# at least the 5% that ROADMAP asks an A/B comparison to resolve. The floor
# is needed on a shared 4-core VM whose speed drifts over minutes: there,
# two sets of unmodified runs have differed by ~4% at p < 0.01.
SLOWER_P = 0.01
SLOWER_MIN_SHIFT = 0.05


def compare(base_rows, new_rows):
    """Rows of (workload, metric, base median, new median, worse share,
    bound, verdict).

    REGRESSION: the new median is worse than the base median by more than
    the metric's bound (the acceptance rule). When both sets ran the same
    seeds, the runs are also paired by seed and a smaller change is
    reported as "slower" once it is resolved: the one-sided Wilcoxon
    signed-rank test on the paired changes gives p <= SLOWER_P, and the
    median paired change is at least SLOWER_MIN_SHIFT. Pairs share their
    inputs, so the test sees run-to-run noise without the spread between
    seeds.
    """
    metrics = {m["name"]: m for m in spec()["end_to_end"]}
    base, new = by_workload(base_rows), by_workload(new_rows)
    base_seed = {(r["workload"], r["seed"]): r for r in base_rows}
    out = []
    for workload in sorted(set(base) & set(new)):
        pairs = [(base_seed[(r["workload"], r["seed"])], r) for r in new_rows
                 if r["workload"] == workload and (workload, r["seed"]) in base_seed]
        for name, m in metrics.items():
            if name not in base[workload] or name not in new[workload]:
                continue
            b = statistics.median(base[workload][name])
            n = statistics.median(new[workload][name])
            worse = worse_share(m["better"], b, n)
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            if verdict == "ok" and len(pairs) >= 5:
                shifts = [worse_share(m["better"], p[0]["metrics"][name]["value"],
                                      p[1]["metrics"][name]["value"]) for p in pairs]
                if (signed_rank_p(shifts) <= SLOWER_P
                        and statistics.median(shifts) >= SLOWER_MIN_SHIFT):
                    verdict = "slower"
            out.append((workload, name, b, n, worse, m["bound"], verdict))
    return out


def print_compare(rows):
    for workload, name, b, n, worse, bound, verdict in rows:
        print("  %-13s %-18s base %-12.6g new %-12.6g worse %+7.2f%% bound %4.0f%% %s"
              % (workload, name, b, n, 100 * worse, 100 * bound, verdict))
    return any(r[-1] != "ok" for r in rows)


def cmd_compare(args):
    return 1 if print_compare(compare(load([args.base]), load([args.new]))) else 0


def cmd_baseline(args):
    """Median and quartiles per metric and workload, with the provenance
    run.py recorded for each workload's first run."""
    rows = load(args.files)
    out = {"commit": args.commit, "workloads": {}}
    keys = ("nproc", "build_type", "compiler", "cordial_threads", "chain_fs")
    for workload, metrics in sorted(by_workload(rows).items()):
        seeds = sorted(r["seed"] for r in rows if r["workload"] == workload)
        info = json.loads((ROOT / ".bench_build" / "results" / (
            "%s-seed%d-trace0.json" % (workload, seeds[0]))).read_text())["info"]
        out["workloads"][workload] = {
            "seeds": seeds, "run_seconds": spec()["run_seconds"],
            "provenance": {k: info[k] for k in keys},
            "metrics": {name: summary(values) for name, values in metrics.items()}}
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % args.out)
    return 0


def cmd_runs(args):
    run_seeds(args.workload, parse_seeds(args.seeds), args.out, args.slowdown, args.trace)
    return 0


def cmd_selftest(args):
    """Unmodified A and B and a slowed set, interleaved seed by seed with a
    rotating order so that drift in machine speed hits all three alike."""
    seeds = parse_seeds(args.seeds)
    stem = ROOT / ".bench_build" / "selftest"
    stem.mkdir(parents=True, exist_ok=True)
    sets = [("a", 0.0), ("b", 0.0), ("slow", args.slowdown)]
    files = {tag: stem / ("%s-%s.jsonl" % (args.workload, tag)) for tag, _ in sets}
    for path in files.values():
        path.unlink(missing_ok=True)
    for i, seed in enumerate(seeds):
        for tag, slowdown in sets[i % 3:] + sets[:i % 3]:
            run_seeds(args.workload, [seed], files[tag], slowdown)
    print("unmodified A vs unmodified B:")
    same_flagged = print_compare(compare(load([files["a"]]), load([files["b"]])))
    print("unmodified A vs %.0f%% slowdown:" % (100 * args.slowdown))
    slow_flagged = print_compare(compare(load([files["a"]]), load([files["slow"]])))
    ok = not same_flagged and slow_flagged
    print("selftest %s: unmodified flagged=%s, slowed flagged=%s"
          % ("PASS" if ok else "FAIL", same_flagged, slow_flagged))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("runs")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--slowdown", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.set_defaults(fn=cmd_runs)
    p = sub.add_parser("spread")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=cmd_compare)
    p = sub.add_parser("baseline")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--commit", required=True, help="commit the runs measured")
    p.set_defaults(fn=cmd_baseline)
    p = sub.add_parser("selftest")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-5")
    p.add_argument("--slowdown", type=float, default=0.1)
    p.set_defaults(fn=cmd_selftest)
    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
