import os
import signal

import numpy as np
import pytest

import cml_lab as cl
from cml_lab import transfer


def pytest_terminal_summary(terminalreporter):
    """Print the captured stdout of the passing acceptance tests, their
    one-line verdicts; every other passing test's output stays hidden."""
    verdicts = [
        r.capstdout.rstrip()
        for r in terminalreporter.stats.get("passed", [])
        if r.when == "call" and os.path.basename(r.location[0]) == "test_acceptance.py"
    ]
    if verdicts:
        terminalreporter.section("acceptance verdicts")
        for text in verdicts:
            terminalreporter.write_line(text)


@pytest.fixture
def deadline():
    """Fail a test that forks workers after 60 s: a worker left running
    would hang the join."""

    def expire(signum, frame):
        raise TimeoutError("the forked shares did not finish in 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def cpus(monkeypatch):
    """Make the process see n CPUs, with no CML_LAB_THREADS cap."""
    monkeypatch.delenv("CML_LAB_THREADS", raising=False)

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _: set(range(n)), raising=False)

    return use


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def metric():
    return cl.MetricParams()


@pytest.fixture(scope="session")
def doubling():
    return cl.doubling_map()


@pytest.fixture(scope="session")
def perturbed():
    return cl.perturbed_doubling_map(0.05)


@pytest.fixture(scope="session")
def doubling_eigen_k0(doubling):
    op = cl.ulam_matrix("P", 0, 256, doubling, potential=cl.zero_potential())
    return cl.leading_eigenpair(op)


@pytest.fixture(scope="session")
def perturbed_eigen_k0(perturbed, metric):
    pot = cl.srb_potential(perturbed, max_k=0, metric=metric)
    op = cl.ulam_matrix("P", 0, 256, perturbed, potential=pot)
    return cl.leading_eigenpair(op)


@pytest.fixture(scope="session")
def coupled_op_k1(perturbed, metric):
    pot = cl.srb_potential(perturbed, max_k=1, metric=metric)
    return cl.ulam_matrix(
        "coupled", 1, 16, perturbed, potential=pot,
        coupling=cl.Coupling(epsilon=0.05), quad=4,
    )


@pytest.fixture(scope="session")
def raw_coupled_eps01(perturbed, metric):
    """The raw coupled operator at eps = 0.1, k=1, N=16, whose coupling
    range misses 718 of the 4,096 cells."""
    grid = cl.Grid(k=1, n_bins=16)
    pot = cl.srb_potential(perturbed, max_k=1, metric=metric)
    coupling = cl.Coupling(epsilon=0.1)
    return cl.UlamOperator(
        kind="coupled", grid=grid, quad=4,
        matrix=transfer._assemble_coupled_matrix(grid, perturbed, pot, coupling, 4),
        node_map=perturbed, potential=pot, coupling=coupling,
    )


@pytest.fixture(scope="session")
def raw_coupled_n24(perturbed, metric):
    """Desk's raw coupled operator at N=24 (k=1, eps = 0.05, srb, quad 4),
    whose coupling range misses 983 of the 13,824 cells."""
    grid = cl.Grid(k=1, n_bins=24)
    pot = cl.srb_potential(perturbed, max_k=1, metric=metric)
    coupling = cl.Coupling(epsilon=0.05)
    return cl.UlamOperator(
        kind="coupled", grid=grid, quad=4,
        matrix=transfer._assemble_coupled_matrix(grid, perturbed, pot, coupling, 4),
        node_map=perturbed, potential=pot, coupling=coupling,
    )
