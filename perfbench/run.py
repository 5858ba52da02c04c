#!/usr/bin/env python3
"""Build and run one perfbench workload; print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--slowdown <share>] [--force-fail]

Run from the root of a checkout. The first run configures and builds the
perfbench binary (CMake, into $CARGO_TARGET_DIR or .bench_build); later
runs only re-check the build. With --trace 0 the result carries every
end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer metric
(spans reduced by reduce.py). Human-readable lines come first; the last
line of standard output is the JSON result. Exits non-zero when the build,
the run or a correctness check fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import reduce  # noqa: E402

RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out_dir):
    """Configure once, then build the perfbench target; returns the binary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "build.log"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out_dir), "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit("perfbench: build failed (see %s)" % log_path)
    return out_dir / "perfbench"


def private_tmpfs(directory):
    """A command prefix that runs the benchmark in a mount namespace of its
    own with a tmpfs over `directory`, so that the checkpoint chain lives
    in memory, as on a daemon host that keeps its chain on tmpfs, and the
    shared disk's flush latency stays out of the timings. The mount goes
    away with the process. Empty when the host does not allow it; the
    chain then stays on the checkout's filesystem, and the result's
    chain_fs says which."""
    if shutil.which("unshare") is None or shutil.which("mount") is None:
        return []
    prefix = ["unshare", "--mount", "sh", "-c",
              'mount -t tmpfs -o size=1g,mode=0700 perfbench "$0" && exec "$@"',
              str(directory)]
    try:
        probe = subprocess.run(prefix + ["true"], capture_output=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return []
    return prefix if probe.returncode == 0 else []


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    every file the benchmark builds from."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slowdown", type=float, default=0.0,
                        help="inject this share of extra work (self-test)")
    parser.add_argument("--force-fail", action="store_true",
                        help="corrupt one reference value so a check fails")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    work = out_dir / "work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    chain_root = work / "chain-fs"
    chain_root.mkdir()
    nproc = os.cpu_count() or 1
    env = dict(os.environ, CORDIAL_THREADS=str(nproc))
    # The serving workloads' model set is trained once per binary.
    model_dir = out_dir / "models" / hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--chain-dir", str(chain_root / "chain"),
           "--model-dir", str(model_dir),
           "--slowdown", str(args.slowdown), "--commit", source_id()]
    if args.force_fail:
        cmd.append("--force-fail")
    cmd = private_tmpfs(chain_root) + cmd
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        shutil.rmtree(work, ignore_errors=True)
        sys.exit("perfbench: no result (exit code %d)" % proc.returncode)
    raw = json.loads(lines[-1])

    if args.trace:
        spans = reduce.load_spans(raw["spans"])
        metrics = reduce.layer_metrics(spans, raw["layers"])
        print(reduce.self_time_table(spans))
    else:
        metrics = raw["metrics"]
    shutil.rmtree(work, ignore_errors=True)

    names = declared(args.trace)
    missing = [n for n in names if n not in metrics]
    if missing:
        sys.exit("perfbench: workload %s did not measure %s"
                 % (args.workload, ", ".join(missing)))
    metrics = {n: metrics[n] for n in names}

    info = dict(raw["info"], workload=args.workload, trace=args.trace,
                cordial_threads_env=env["CORDIAL_THREADS"])
    print("# provenance " + json.dumps(info, sort_keys=True))
    for name in names:
        print("# %-28s %16.6g %s" % (name, metrics[name]["value"],
                                    metrics[name]["unit"]))
    result = {"correct": raw["correct"], "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    results = out_dir / "results"
    results.mkdir(exist_ok=True)
    (results / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(dict(result, info=info), indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if raw["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
