"""Shared fixtures: the three-link textbook problem, problem-building helpers and criterion runs."""

import functools
from pathlib import Path

import numpy as np
import pytest

from jpac import kernel
from jpac.harness import ExperimentConfig, run_experiment
from jpac.network import NetworkInstance, NormalizedProblem, normalize
from jpac.scenario import ScenarioConfig, generate

# Three-link problem where the lq relaxation recovers the sparse optimum but
# the l1 relaxation collapses to x = 0.  Used as ground truth throughout.
A3 = np.array([
    [1.0, 0.0, -1.0],
    [0.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
])
B3 = np.full(3, 0.5)
X3_STAR = np.array([0.5, 0.5, 0.0])
ALPHA3 = 1.0 / 15.0


@pytest.fixture
def three_link() -> NormalizedProblem:
    return NormalizedProblem(A=A3, b=B3, budgets=np.ones(3), alpha=ALPHA3)


@pytest.fixture
def three_link_instance() -> NetworkInstance:
    # Physical channel whose normalization is exactly (A3, B3): unit direct
    # gains, unit targets and budgets, noise 0.5 W, cross gains matching the
    # sparsity pattern.
    gains = np.array([
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
    ])
    return NetworkInstance(
        gains=gains,
        noise=np.full(3, 0.5),
        sinr_targets=np.ones(3),
        budgets=np.ones(3),
    )


def random_problem(K: int, seed: int, distance_scale: float = 1.0) -> NormalizedProblem:
    """Normalized problem from the random deployment scenario."""
    return normalize(generate(ScenarioConfig(K=K, seed=seed, distance_scale=distance_scale)))


def diag_problem(K: int = 2, b: float = 0.5, alpha: float | None = None) -> NormalizedProblem:
    """K interference-free links, each with noise b and unit budget."""
    return NormalizedProblem(A=np.eye(K), b=np.full(K, b), budgets=np.ones(K), alpha=alpha)


def fail_first_schur_solve(monkeypatch) -> None:
    """Make the kernel's first stacked lu_solve raise LinAlgError, as at a zero LU pivot.

    The kernel solves its Schur systems as an (N, K, K) stack through its
    own binding of network.lu_solve, which is the one replaced, so only the
    kernel's first solve fails and admission's solves run as given.
    """
    solve = kernel.lu_solve
    failed = []

    def failing_once(a, b):
        if np.ndim(a) == 3 and not failed:
            failed.append(a)
            raise np.linalg.LinAlgError("forced")
        return solve(a, b)

    monkeypatch.setattr(kernel, "lu_solve", failing_once)


CRITERIA = Path(__file__).resolve().parent / "criteria"


def criterion_config(num: int) -> ExperimentConfig:
    """Criterion num's experiment config, read from its committed file as `jpac experiment` reads it."""
    return ExperimentConfig.from_json((CRITERIA / f"criterion_{num:02d}.json").read_text())


@functools.cache
def criterion_run(num: int):
    """run_experiment's (rows, summary) for criterion num's config, run once per session.

    Every caller shares the same rows and summary records: a test reads them
    and must not change them.
    """
    return run_experiment(criterion_config(num))


# Verdict lines recorded by the acceptance tests; echoed after the run so
# they survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
