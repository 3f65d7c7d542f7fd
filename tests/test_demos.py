"""The demos run end to end on the public API and print their findings."""

import re
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_worked_example(capsys):
    runpy.run_path(str(DEMOS / "worked_example.py"), run_name="__main__")
    out = capsys.readouterr().out
    for line in ("best support (0, 1)", "nlpd: admitted [0, 1]", "lqmd: admitted [0, 1]", "(success)"):
        assert line in out, line


def test_deflation_comparison(capsys):
    runpy.run_path(str(DEMOS / "deflation_comparison.py"), run_name="__main__")
    out = capsys.readouterr().out
    counts = re.search(r"lqmd wins (\d+), nlpd wins (\d+), equal (\d+)", out)
    assert counts, out
    # Every one of the demo's 50 runs is a win for one pipeline or a tie.
    assert sum(map(int, counts.groups())) == 50
    assert "mean admitted links:" in out


def test_approximation_comparison(capsys):
    runpy.run_path(str(DEMOS / "approximation_comparison.py"), run_name="__main__")
    out = capsys.readouterr().out
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:]}
    assert list(rows) == ["benchmark", "lq0.1", "l1"], out
    # The benchmark is the exact optimum, so it recovers itself on every run.
    assert rows["benchmark"][-1] == "100%"
