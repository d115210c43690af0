"""econclimb benchmark: cold CLI, replan storm and fine profile.

Run from the root of an econclimb checkout:

    python3 bench/run.py --workload replan-storm --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

One run sets up (times fresh-interpreter imports), generates its inputs from
``--seed``, warms up, and measures ``--seconds`` of closed-loop operations,
checking every operation's output. It prints each metric by name with its
unit, a provenance line, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs half the time untraced and the
same operations again under the span tracer, and reports per-layer metrics.
The spans go to ``bench/.out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

# One process, no extra threads: pin native thread pools before NumPy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The program reads ECONCLIMB_* overrides from the environment; the inputs
# must be only the generated configs.
for _var in [v for v in os.environ if v.startswith("ECONCLIMB_")]:
    del os.environ[_var]

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("cli-cold", "replan-storm", "fine-profile")

# Workload-specific names of each workload's end-to-end figures, printed
# beside the generic metric names the JSON result uses.
_ALIASES = {
    "cli-cold": ("cli_wall_s", 1.0, "s", 90),
    "replan-storm": ("scenario_latency_ms", 1000.0, "ms", 99),
    "fine-profile": ("profile_latency_s", 1.0, "s", 90),
}


def _src_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def provenance(root, seed):
    from importlib.metadata import PackageNotFoundError, version
    import platform

    def ver(dist):
        try:
            return version(dist)
        except PackageNotFoundError:
            return None

    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": ver("numpy"),
        "scipy": ver("scipy"),
        "pyyaml": ver("PyYAML"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": _src_digest(root),
        "seed": seed,
    }


def _end_to_end(res):
    lat = res["latencies"]
    metrics = {
        "setup_s": (res["setup_s"], "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_ms_p50": (1000.0 * statistics.median(lat), "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _print_aliases(name, res, metrics):
    import workloads

    lat = res["latencies"]
    stem, scale, unit, tail = _ALIASES[name]
    print(f"  {stem}_p50 = {scale * statistics.median(lat):.6g} {unit}  (n={len(lat)})")
    got = workloads.tail_percentile(lat, tail)
    if got is None:
        print(f"  {stem}_p{tail} = n/a  (n={len(lat)}; no percentile above "
              "p50 has ten samples beyond it)")
    else:
        p, value = got
        print(f"  {stem}_p{p} = {scale * value:.6g} {unit}  (n={len(lat)})")
    if name == "replan-storm":
        print(f"  scenarios_per_s = {metrics['ops_per_s']['value']:.6g} 1/s")
    if name == "fine-profile":
        rows = res["rows_written"]
        print(f"  profile_rows_per_s = {rows / sum(lat):.6g} rows/s  "
              f"({rows} rows in {len(lat)} profiles)")
    print(f"  failed_frac = {res['failed'] / res['attempted']:.6g}  "
          f"({res['failed']} of {res['attempted']} operations)")


def run_one(args, root):
    import workloads

    out_root = os.path.join(BENCH_DIR, ".out")
    out_dir = os.path.join(
        out_root, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        res = workloads.run_workload(args.workload, root, args.seed,
                                     args.seconds, bool(args.trace), out_dir)
    finally:
        shutil.rmtree(out_dir)
    prov = provenance(root, args.seed)
    prov["ops"] = {"attempted": res["attempted"], "failed": res["failed"],
                   "measured": len(res["latencies"])}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        metrics = {"econclimb.import_s": {"value": res["import_s"], "unit": "s"},
                   "econclimb.modules_loaded": {"value": res["modules_loaded"],
                                                "unit": "count"}}
        for key, (value, unit) in res["layer_metrics"].items():
            metrics[key] = {"value": value, "unit": unit}
        prov["ops"]["traced"] = len(res["traced_latencies"])
        sidecar = os.path.join(out_root,
                               f"trace-{args.workload}-seed{args.seed}.json")
        res["tracer"].dump(sidecar, {"workload": args.workload,
                                     "provenance": prov,
                                     "shares": res["shares"]})
        for key, m in metrics.items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
        print("  share of operation time (self / inclusive):")
        for layer, share in res["shares"].items():
            print(f"    {layer:16s} {share['self']:7.1%} / {share['inclusive']:7.1%}")
        print(f"  spans written to {os.path.relpath(sidecar, root)}")
    else:
        metrics = _end_to_end(res)
        for key, m in metrics.items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
        _print_aliases(args.workload, res, metrics)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"][name] = result["metrics"]
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    missing = [p for p in ("src/econclimb/__init__.py",
                           "configs/e430_atc_climb.yaml")
               if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print("error: run from the root of an econclimb checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.join(root, "src"))
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
