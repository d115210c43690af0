"""Byte-for-byte golden outputs of the CLI on the bundled configs.

Each file under ``tests/golden/`` is exactly what one command prints or
writes. Regenerate a file by running its command from the repository root
(with ``src`` on the import path and no ``ECONCLIMB_*`` variable set), in
``tests/golden/``'s place:

    python -m econclimb.cli_io plan --config configs/e430_atc_climb.yaml \\
        --out plan.json > plan.stdout
    python -m econclimb.cli_io plan --config configs/e430_atc_climb.yaml \\
        --no-event > plan_no_event.stdout
    python -m econclimb.cli_io profile --config configs/e430_atc_climb.yaml \\
        --sim-step 1 --out profile.csv
    python -m econclimb.cli_io sweep --config configs/e430_atc_climb.yaml \\
        --tau-s 1,10,100,inf --out sweep.csv
    python -m econclimb.cli_io calibrate --config configs/e430_atc_climb.yaml \\
        --out calibrate.json > calibrate.stdout
    python -m econclimb.cli_io plan --config configs/e430_atc_storm.yaml \\
        --out plan_storm.json > plan_storm.stdout

The last one pins the re-plan path: six ATC events, time and waypoint
triggers alternating, under a finite filter time constant. The profile
command also writes ``profile.csv.meta.json``.

The replayed charge is exact, so the final charge and energy in these
files are the same at any ``--sim-step``; the step only sets how many
profile rows there are.

Outputs too large to keep as files (the 0.01 s profiles of both bundled
configs and a 0.01 km/h sweep, 1-5 MB each) are pinned by the sha256 of
their bytes in ``PINS``; print a new digest with ``sha256sum`` on the file
the command writes. Any change to these bytes changes the program's output
and must be declared with its old and new values.

The replan-storm traffic of the benchmark (the 200 scenarios
``bench/inputs.py`` generates for seeds 1001 and 2001) is pinned the same
way: one sha256 per seed over each scenario's profile CSV followed by its
summary JSON, as ``profile`` and ``plan --out`` render them. Six
significant digits would hide a one-ulp drift, so seed 1001 is pinned once
more by its raw bits: each profile table's float64 bytes, each leg's plan
fields from the summary's segments packed as float64, and the summary as
``json.dumps`` writes it (``repr`` of every float, which round-trips).
"""

import hashlib
import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

from econclimb import run_scenario
from econclimb.cli_io import _jsonable, _profile_csv, main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

#: sha256 of the 200 replan-storm scenarios of seed 1001, rendered in order.
STORM_PIN = ("f2ef0d5340e9c1c9aad7d794aa19587b"
             "798f6ac6119e35a232a6878d21157140")

#: sha256 of the raw bits of the 200 replan-storm scenarios of seed 1001.
STORM_BITS_PIN = ("bab62db292635d9fcf1ae1aa39636b3d"
                  "1f9a7c6b6c9545d61ece77e60d94e868")

#: The same for the 200 replan-storm scenarios of seed 2001.
STORM_PIN_2001 = ("599a6c5c704260e02b06995c72c79b3b"
                  "bcd1ddac56efa9ca1f8f127e517f68d0")

# case -> (subcommand and its flags, golden file of its stdout or None,
#          files it writes[, config file name, default e430_atc_climb.yaml])
CASES = {
    "plan": (["plan", "--out", "plan.json"], "plan.stdout", ["plan.json"]),
    "plan_no_event": (["plan", "--no-event"], "plan_no_event.stdout", []),
    "profile": (["profile", "--sim-step", "1", "--out", "profile.csv"], None,
                ["profile.csv", "profile.csv.meta.json"]),
    "sweep": (["sweep", "--tau-s", "1,10,100,inf", "--out", "sweep.csv"], None,
              ["sweep.csv"]),
    "calibrate": (["calibrate", "--out", "calibrate.json"], "calibrate.stdout",
                  ["calibrate.json"]),
    "plan_storm": (["plan", "--out", "plan_storm.json"], "plan_storm.stdout",
                   ["plan_storm.json"], "e430_atc_storm.yaml"),
}


# case -> (subcommand and its flags, config file name,
#          {file it writes: sha256 of its bytes})
PINS = {
    "profile_fine": (
        ["profile", "--sim-step", "0.01", "--out", "profile.csv"],
        "e430_atc_climb.yaml",
        {"profile.csv": "981f09f8f980bf778b520da5f2ea8bc8"
                        "e6cc792debb46bdb22b1287720c48d3c",
         "profile.csv.meta.json": "12c67355059ce78e5363b9c9bd4486f4"
                                  "5958f3e9e9b00148be1321bee8947614"}),
    "profile_storm_fine": (
        ["profile", "--sim-step", "0.01", "--out", "profile.csv"],
        "e430_atc_storm.yaml",
        {"profile.csv": "9119b0d855991e8eac2890d541e55c02"
                        "d94ddc79ad06c40e97f90d99ab9aa03e",
         "profile.csv.meta.json": "cd5cc09c0d0476eead207dc66ebf062b"
                                  "d0cbb72dcb249862b84cf920e3a9e5de"}),
    "sweep_fine": (
        ["sweep", "--v-step-kmh", "0.01", "--tau-s", "1,10,100,inf",
         "--out", "sweep.csv"],
        "e430_atc_climb.yaml",
        {"sweep.csv": "0116f04ebe782ad2d75a0a61d01d8e7e"
                      "d703941e04bb710a7b3e7d29ef5fa6af"}),
}


def _run(argv, config, tmp_path, monkeypatch, capsys):
    """stdout of the CLI run on a bundled config in tmp_path, with no
    ECONCLIMB_* variable set."""
    for name in list(os.environ):
        if name.startswith("ECONCLIMB_"):
            monkeypatch.delenv(name)
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], "--config", str(CONFIGS / config), *argv[1:]]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path, monkeypatch, capsys):
    argv, stdout_file, written, *config = CASES[case]
    out = _run(argv, config[0] if config else "e430_atc_climb.yaml",
               tmp_path, monkeypatch, capsys)
    if stdout_file is not None:
        assert out.encode("utf-8") == (GOLDEN / stdout_file).read_bytes()
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), \
            name


@pytest.mark.parametrize("case", sorted(PINS))
def test_cli_output_matches_pinned_digest(case, tmp_path, monkeypatch,
                                          capsys):
    argv, config, digests = PINS[case]
    _run(argv, config, tmp_path, monkeypatch, capsys)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
            == digest, name


def _bench_inputs():
    """bench/inputs.py, loaded by path so that nothing in bench/ is
    imported as a package or changed."""
    spec = importlib.util.spec_from_file_location(
        "_bench_inputs", ROOT / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _storm_digest(seed):
    """sha256 of the replan-storm scenarios of seed, rendered in order."""
    digest = hashlib.sha256()
    for scn in _bench_inputs().replan_storm_scenarios(seed):
        result = run_scenario(scn)
        text = _profile_csv(result.samples.table) + json.dumps(
            _jsonable(result.summary), indent=2, sort_keys=True,
            allow_nan=False) + "\n"
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def test_replan_storm_matches_pinned_digest():
    assert _storm_digest(1001) == STORM_PIN


def test_replan_storm_2001_matches_pinned_digest():
    assert _storm_digest(2001) == STORM_PIN_2001


def test_replan_storm_raw_bits_match_pinned_digest():
    digest = hashlib.sha256()
    for scn in _bench_inputs().replan_storm_scenarios(1001):
        result = run_scenario(scn)
        digest.update(result.samples.table.tobytes())
        for leg in result.summary["segments"]:
            digest.update(np.array(
                [leg["v_star_ms"], leg["planned_time_s"], leg["j_star_C"],
                 leg["iterations"], leg["at_envelope_limit"]],
                dtype=np.float64).tobytes())
        digest.update(json.dumps(result.summary, sort_keys=True).encode())
    assert digest.hexdigest() == STORM_BITS_PIN
