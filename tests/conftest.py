"""Fixtures shared by the tests of forked work."""

import multiprocessing.process

import pytest


@pytest.fixture
def started(monkeypatch):
    """The processes started while the test runs."""
    processes = []
    start = multiprocessing.process.BaseProcess.start

    def counted(self):
        processes.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    return processes
