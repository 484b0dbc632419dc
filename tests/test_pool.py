import os

import pytest

import prefkit as pk
from prefkit import pool


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_cells_come_back_in_cell_order(monkeypatch, cpus):
    # 2,500 cells, dealt as cells[i::w] to each of w workers.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    cells = list(range(2500))
    results = pool.map_cells(lambda cell: cell * cell, cells)
    assert results == [cell * cell for cell in cells]


def test_no_cells_fork_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("an empty map forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    assert pool.map_cells(lambda cell: cell, []) == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork: the caller scores every cell")
def test_an_unpicklable_exception_comes_back_as_a_prefkit_error(monkeypatch):
    class Local(Exception):
        def __init__(self, message):
            super().__init__(message)
            self.hook = lambda: None  # neither the local class nor the lambda pickles

    def score(cell):
        if cell == 1:  # of 2 cells on 2 workers, cell 1 is the child's
            raise Local("boom")
        return cell

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(pk.PrefkitError) as info:
        pool.map_cells(score, [0, 1])
    assert type(info.value) is pk.PrefkitError and str(info.value) == "Local: boom"
    with pytest.raises(ChildProcessError):  # the child was reaped
        os.waitpid(-1, os.WNOHANG)
