"""Atomic writes: a write that fails midway leaves the previous file."""

import json
import os

import pytest

from repro.core.snapshot import save, snapshot
from repro.faults import FaultPlan
from repro.fileio import atomic_write
from repro.sim.export import read_csv, scores_to_csv
from tests.conftest import make_host


class Boom(RuntimeError):
    pass


class TestAtomicWrite:
    def test_clean_write_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_raise_midway_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(Boom):
            with atomic_write(path) as fh:
                fh.write("half of the new con")
                raise Boom()
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]  # no temporary left

    def test_raise_midway_on_a_new_path_creates_nothing(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(Boom):
            with atomic_write(path) as fh:
                fh.write("partial")
                raise Boom()
        assert os.listdir(tmp_path) == []


class TestWritersGoThroughIt:
    def test_snapshot_survives_a_failed_fsync(self, tmp_path, monkeypatch):
        _, _, ctrl = make_host()
        path = str(tmp_path / "ctrl.json")
        save(ctrl, path)
        before = open(path).read()
        ctrl.register_vm("vm-late", 1200.0)

        def failing_fsync(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk gone"):
            save(ctrl, path)
        assert open(path).read() == before
        assert json.loads(before) != snapshot(ctrl)
        assert os.listdir(tmp_path) == ["ctrl.json"]

    def test_csv_export_that_fails_midway_keeps_the_old_csv(self, tmp_path):
        path = tmp_path / "scores.csv"
        scores_to_csv(path, {"a": [1.0, 2.0]})
        before = path.read_text()

        class Exploding(list):
            def __getitem__(self, i):
                if i == 1:
                    raise Boom()
                return super().__getitem__(i)

        with pytest.raises(Boom):
            scores_to_csv(path, {"a": Exploding([5.0, 6.0, 7.0])})
        assert path.read_text() == before
        assert read_csv(path) == {"iteration": [1.0, 2.0], "a": [1.0, 2.0]}

    def test_fault_plan_save_round_trips(self, tmp_path):
        plan = FaultPlan.standard_mix(seed=3)
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert FaultPlan.load(path).to_json() == plan.to_json()
        assert os.listdir(tmp_path) == ["plan.json"]
