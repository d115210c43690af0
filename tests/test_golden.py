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
command also writes ``profile.csv.meta.json``. Any change to these bytes
changes the program's output and must be declared with its old and new
values.
"""

import os
from pathlib import Path

import pytest

from econclimb.cli_io import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

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


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path, monkeypatch, capsys):
    for name in list(os.environ):
        if name.startswith("ECONCLIMB_"):
            monkeypatch.delenv(name)
    monkeypatch.chdir(tmp_path)
    argv, stdout_file, written, *config = CASES[case]
    config = CONFIGS / (config[0] if config else "e430_atc_climb.yaml")
    assert main([argv[0], "--config", str(config), *argv[1:]]) == 0
    out = capsys.readouterr().out
    if stdout_file is not None:
        assert out.encode("utf-8") == (GOLDEN / stdout_file).read_bytes()
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), \
            name
