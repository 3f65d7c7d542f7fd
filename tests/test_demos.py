"""The worked example runs end to end on the public API and prints its findings."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_worked_example(capsys):
    runpy.run_path(str(DEMOS / "worked_example.py"), run_name="__main__")
    out = capsys.readouterr().out
    for line in ("best support (0, 1)", "nlpd: admitted [0, 1]", "lqmd: admitted [0, 1]", "(success)"):
        assert line in out, line
