"""Shared pytest wiring: print the acceptance verdict block after the run,
and count the decoder's single-codeword Berlekamp-Welch runs.

The acceptance tests record one PASS/FAIL line per criterion in a registry;
emitting them from a terminal-summary hook keeps them visible regardless of
pytest's output capture mode.
"""

import sys

import pytest

from packsecagg import rsdecode


@pytest.fixture
def nullspace_calls(monkeypatch):
    """List that gains one entry (the system's row count) per kernel solve
    inside `rs_decode`, that is, per single-codeword Berlekamp-Welch run."""
    calls = []
    real = rsdecode.nullspace_vector

    def counting(rows, p):
        calls.append(len(rows))
        return real(rows, p)

    monkeypatch.setattr(rsdecode, "nullspace_vector", counting)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
