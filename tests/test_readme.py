"""The README's examples run as it shows them: the Quickstart's ``plan``
output is the golden file byte for byte, and the Python example replays
the same scenario to the golden's total time and final charge."""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
PLAN_GOLDEN = (ROOT / "tests" / "golden" / "plan.stdout").read_text(
    encoding="utf-8")
PLAN_COMMAND = "$ econclimb plan --config configs/e430_atc_climb.yaml\n"


def _blocks(language):
    """The bodies of the README's fenced blocks in one language."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README,
                      re.MULTILINE | re.DOTALL)


def _golden_number(label):
    return float(re.search(rf"{label}: (\S+)", PLAN_GOLDEN).group(1))


def test_the_quickstart_plan_output_is_the_golden():
    (block,) = [b for b in _blocks("sh") if b.startswith(PLAN_COMMAND)]
    assert block[len(PLAN_COMMAND):] == PLAN_GOLDEN


def test_the_python_example_replays_the_golden_scenario():
    (code,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    total_time, final_q = map(float, out.getvalue().split())
    for got, label in ((total_time, "total time"),
                       (final_q, "final charge")):
        want = _golden_number(label)
        assert abs(got - want) <= 1e-5 * want, (label, got, want)
