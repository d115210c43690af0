"""The three benchmark workloads and the closed loop that runs them.

Load comes from this one process, with no extra threads, in a closed loop:
each operation starts only after the previous one has finished and its
output has been checked. The measured window is ``seconds`` of operation
time; checking and set-up are outside it.

* ``cli-cold``: one operation is one ``python -m econclimb.cli_io``
  subprocess (plan --out, profile, sweep, calibrate in rotation).
* ``replan-storm``: one operation is ``run_scenario`` on a generated
  ``Scenario`` plus its summary JSON, in process.
* ``fine-profile``: one operation is ``cli_io.main(["profile", ...])`` at a
  0.01 s step, in process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import inputs
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Fresh interpreters started to time ``import econclimb.cli_io``.
SETUP_REPEATS = 8

#: Step of the warm-up plan and profile of the reference config.  [s]
WARMUP_SIM_STEP_S = 5.0

_IMPORT_PROBE = (
    "import json, sys, time\n"
    "t0 = time.perf_counter()\n"
    "import econclimb.cli_io\n"
    "print(json.dumps([time.perf_counter() - t0, len(sys.modules)]))\n"
)


class Run:
    """Per-run context: paths, child environment and the op outcome tallies."""

    def __init__(self, root, seed, out_dir):
        self.root = root
        self.seed = seed
        self.out_dir = out_dir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.attempted = 0
        self.failed = 0
        self.rows_written = 0
        self._verified = {}

    def path(self, name):
        return os.path.join(self.out_dir, name)

    def check_once(self, key, outputs, check):
        """Run ``check()`` on the first output of an input; later outputs of
        the same input must be byte-identical to it.

        The program is deterministic, so a repeat that matches a fully
        checked output is correct, and one that differs is a failure. This
        keeps checking cheap next to the operations it checks. Returns what
        ``check()`` returned for that input.
        """
        digest = hashlib.sha256(b"".join(outputs)).digest()
        if key not in self._verified:
            self._verified[key] = (digest, check())
        elif self._verified[key][0] != digest:
            raise checks.CheckError(
                "output differs from the checked output of the same input")
        return self._verified[key][1]

    def record(self, label, exc):
        """Count one checked operation; report a failure on stderr."""
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            print(f"operation {label} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)


def measure_setup(run):
    """Median wall time of fresh interpreters importing ``econclimb.cli_io``.

    Also returns the median import time measured inside the child and the
    size of its ``sys.modules``.
    """
    walls, imports, modules = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                              cwd=run.root, env=run.env, capture_output=True,
                              text=True, check=True)
        walls.append(time.perf_counter() - t0)
        import_s, n_modules = json.loads(proc.stdout)
        imports.append(import_s)
        modules.append(n_modules)
    return (statistics.median(walls), statistics.median(imports),
            statistics.median_low(modules))


def closed_loop(run, specs, execute, check, seconds=None, n_ops=None,
                tracer=None, whole=1, first_op=0):
    """Run ``specs`` in rotation for ``n_ops`` operations, or until
    ``seconds`` of op time and a whole multiple of ``whole`` operations.

    ``execute(spec)`` is timed; ``check(spec, out)`` is not. With a
    ``tracer``, operation ``i`` is traced under index ``first_op + i``.
    Returns the per-operation latencies in seconds.
    """
    latencies = []
    busy = 0.0
    i = 0
    while (busy < seconds or i % whole) if n_ops is None else i < n_ops:
        spec = specs[i % len(specs)]
        exc = out = None
        if tracer is not None:
            tracer.op, tracer.active = first_op + i, True
        t0 = time.perf_counter()
        try:
            out = execute(spec)
        except Exception as err:  # an op that raises is a failed op
            exc = err
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if exc is None:
            try:
                check(spec, out)
            except Exception as err:  # includes checks.CheckError
                exc = err
        run.record(f"{i} ({spec['label']})", exc)
        latencies.append(dt)
        busy += dt
        i += 1
    return latencies


# --- CLI operations shared by the workloads ---------------------------------

def cli_spec(run, label, command, config, sim_step=None):
    """One CLI operation: its argv, output path and what the check needs."""
    out = run.path(f"{command}.{'csv' if command in ('profile', 'sweep') else 'json'}")
    argv = [command, "--config", config, "--out", out]
    if sim_step is not None:
        argv += ["--sim-step", repr(sim_step)]
    return {"label": label, "command": command, "config": config,
            "sim_step": sim_step, "out": out, "argv": argv}


def write_config(run, name, text):
    """Write a generated config; ``None`` text means the bundled reference."""
    if text is None:
        return inputs.REFERENCE_CONFIG
    path = run.path(f"{name}.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def check_cli_output(run, spec, rc, stdout, stderr=""):
    """Check one CLI operation's exit code and outputs.

    Returns the number of profile rows written (0 for other commands).
    """
    if rc != 0:
        raise checks.CheckError(f"exit {rc}: {stderr.strip()[-300:]}")
    paths = [spec["out"]]
    if spec["command"] == "profile":
        paths.append(spec["out"] + ".meta.json")
    texts = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    return run.check_once(spec["label"],
                          [t.encode("utf-8") for t in (stdout, *texts)],
                          lambda: _check_cli_texts(spec, stdout, *texts))


def _check_cli_texts(spec, stdout, text, meta=None):
    from econclimb import cli_io

    checks.check_text(stdout)
    command = spec["command"]
    if command == "sweep":
        checks.check_sweep_csv(text)
        return 0
    if command == "calibrate":
        checks.check_calibrate_json(text)
        return 0
    cfg = cli_io.load_config(spec["config"], env={}, sim_step=spec["sim_step"])
    scenario, _ = cli_io.build_scenario(cfg)
    summary_text = meta if command == "profile" else text
    checks.check_text(summary_text)
    summary = json.loads(summary_text)
    rows = 0
    if command == "profile":
        rows = checks.check_profile_csv(text, summary, scenario.sim_step)
    checks.check_plan_legs(summary, scenario, printed=True)
    return rows


def main_in_process(spec):
    """Run ``cli_io.main`` on the spec's argv; returns (exit code, stdout)."""
    from econclimb import cli_io

    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        rc = cli_io.main(spec["argv"])
    return rc, stdout.getvalue()


# --- cli-cold ---------------------------------------------------------------

def cli_cold(run, seconds, tracer):
    specs = []
    for name, text in inputs.cli_cold_configs(run.seed):
        config = write_config(run, name, text)
        specs += [cli_spec(run, f"{command} {name}", command, config)
                  for command in inputs.CLI_COMMANDS]

    def execute(spec):
        return subprocess.run([sys.executable, "-m", "econclimb.cli_io",
                               *spec["argv"]], cwd=run.root, env=run.env,
                              capture_output=True, text=True)

    def check(spec, proc):
        check_cli_output(run, spec, proc.returncode, proc.stdout, proc.stderr)

    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # Whole rotations of the subcommands, whose costs differ, so every run
    # has the same command mix and the median does not shift between them.
    whole = len(inputs.CLI_COMMANDS)
    if tracer is None:
        latencies = closed_loop(run, specs, execute, check, seconds, whole=whole)
        return latencies, None, peak_rss_mb()

    latencies = closed_loop(run, specs, execute, check, seconds / 2, whole=whole)
    sidecars = []

    def execute_traced(spec):
        sidecar = run.path(f"trace-child-{len(sidecars)}.json")
        sidecars.append(sidecar)
        return subprocess.run([sys.executable,
                               os.path.join(BENCH_DIR, "traced_cli.py"),
                               sidecar, *spec["argv"]], cwd=run.root,
                              env=run.env, capture_output=True, text=True)

    traced_lat = closed_loop(run, specs, execute_traced, check,
                             n_ops=len(latencies))
    for op, sidecar in enumerate(sidecars):
        if not os.path.exists(sidecar):  # that operation already failed
            continue
        with open(sidecar, encoding="utf-8") as fh:
            child = json.load(fh)
        ids = [tracer.name_id(n) for n in child["names"]]
        base = len(tracer.spans)
        tracer.spans.extend(
            (ids[nid], t0, t1, parent + base if parent >= 0 else -1, op)
            for nid, t0, t1, parent, _ in child["spans"])
        tracer.counts.update(child["counts"])
    return latencies, traced_lat, peak_rss_mb()


# --- in-process workloads ---------------------------------------------------

def _in_process(run, specs, execute, check, seconds, tracer):
    """Warm up, then measure; traced: an untraced window of half the time,
    then the same operations again with the tracer installed.

    The warm-up plans and profiles the reference config at a coarse step
    (and checks both), so lazy set-up is paid outside the measured window.
    In the traced run it is traced too, under negative operation indices:
    its spans give the per-call times of config loading and calibration,
    which replan-storm's operations never call, and are left out of every
    per-operation figure.
    """
    warm = [cli_spec(run, f"warm-up {command}", command,
                     inputs.REFERENCE_CONFIG, WARMUP_SIM_STEP_S)
            for command in ("plan", "profile")]

    def warm_check(spec, out):
        check_cli_output(run, spec, *out)

    closed_loop(run, warm, main_in_process, warm_check, n_ops=len(warm))
    if tracer is None:
        latencies = closed_loop(run, specs, execute, check, seconds)
        return latencies, None, _self_peak_rss_mb()
    latencies = closed_loop(run, specs, execute, check, seconds / 2)
    tracer.install()
    try:
        closed_loop(run, warm, main_in_process, warm_check, n_ops=len(warm),
                    tracer=tracer, first_op=-len(warm))
        traced_lat = closed_loop(run, specs, execute, check,
                                 n_ops=len(latencies), tracer=tracer)
    finally:
        tracer.uninstall()
    return latencies, traced_lat, _self_peak_rss_mb()


def _self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summary_json(result):
    """The summary JSON ``econclimb plan --out`` writes for this result."""
    from econclimb import cli_io

    return json.dumps(cli_io._jsonable(result.summary), indent=2,
                      sort_keys=True, allow_nan=False) + "\n"


def replan_storm(run, seconds, tracer):
    from econclimb import scenario_sim

    specs = [{"label": f"scenario {k}", "scenario": scn}
             for k, scn in enumerate(inputs.replan_storm_scenarios(run.seed))]

    def execute(spec):
        result = scenario_sim.run_scenario(spec["scenario"])
        if tracer is None or not tracer.active:
            return result, summary_json(result)
        with tracer.span("cli_io.summary_json"):
            text = summary_json(result)
        tracer.counts["cli_io.bytes_written"] += len(text.encode("utf-8"))
        return result, text

    def check(spec, out):
        result, text = out

        def full_check():
            checks.check_text(text)
            json.loads(text)
            checks.check_samples(result, spec["scenario"])

        rows = np.array([(s.t, s.x, s.h, s.v, s.ci, s.q, s.e, s.v_track)
                         for s in result.samples], dtype=float)
        run.check_once(spec["label"], [text.encode("utf-8"), rows.tobytes()],
                       full_check)

    return _in_process(run, specs, execute, check, seconds, tracer)


def fine_profile(run, seconds, tracer):
    specs = []
    for name, text in inputs.fine_profile_configs(run.seed):
        # Generated configs carry the step; the bundled one needs the flag.
        step = inputs.FINE_SIM_STEP_S if text is None else None
        specs.append(cli_spec(run, f"profile {name}", "profile",
                              write_config(run, name, text), step))

    def check(spec, out):
        run.rows_written += check_cli_output(run, spec, *out)

    return _in_process(run, specs, main_in_process, check, seconds, tracer)


WORKLOADS = {
    "cli-cold": cli_cold,
    "replan-storm": replan_storm,
    "fine-profile": fine_profile,
}


def tail_percentile(values, wanted):
    """(percentile, value) for the highest percentile up to ``wanted`` that
    has at least ten samples beyond it, or None if even p50 has not."""
    n = len(values)
    best = min(wanted, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 0
    if best <= 50:
        return None
    return best, spans.percentile(values, best)


def run_workload(name, root, seed, seconds, traced, out_dir):
    """Set up, run and measure one workload; returns a result mapping."""
    run = Run(root, seed, out_dir)
    setup_s, import_s, n_modules = measure_setup(run)
    tracer = spans.Tracer() if traced else None
    latencies, traced_lat, rss_mb = WORKLOADS[name](run, seconds, tracer)
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "latencies": latencies,
        "setup_s": setup_s,
        "import_s": import_s,
        "modules_loaded": n_modules,
        "peak_rss_mb": rss_mb,
        "rows_written": run.rows_written,
    }
    if tracer is not None:
        metrics, shares = spans.layer_metrics(tracer.names, tracer.spans,
                                              tracer.counts, len(traced_lat))
        metrics["trace.overhead_frac"] = (
            sum(traced_lat) / sum(latencies[:len(traced_lat)]) - 1.0, "ratio")
        result.update(layer_metrics=metrics, shares=shares, tracer=tracer,
                      traced_latencies=traced_lat)
    return result
