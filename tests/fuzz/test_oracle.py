"""Tests for the differential oracle: passing cases, and every failure mode."""

from __future__ import annotations

import pytest

import repro.fuzz.oracle as oracle_module
from repro.core.scheduler import SCHEDULER_BACKENDS
from repro.fuzz import (
    OracleFailure,
    Scenario,
    ScenarioGenerator,
    oracle_failing,
    run_oracle,
)
from repro.hardware.topologies import linear_device
from repro.schedule.serialize import device_to_dict, schedule_to_bytes


def _small_scenario() -> Scenario:
    return Scenario(
        circuit={"kind": "ghz", "num_qubits": 4, "ladder": True},
        device=device_to_dict(linear_device(3, 3)),
        name="oracle-unit",
    )


class TestOraclePasses:
    def test_clean_scenario_reports_every_check(self):
        report = run_oracle(_small_scenario())
        assert report.two_qubit_gates == 3
        assert report.operations > 0
        assert report.backends == oracle_module.DEFAULT_BACKENDS == ("naive", "flat")
        assert set(report.backends) == set(SCHEDULER_BACKENDS)
        names = set(report.checks)
        # One entry per check family must be present.
        assert {"compile:naive", "compile:flat", "parity:flat"} <= names
        assert {"verify:s-sync", "codec:binary", "codec:json"} <= names
        assert {"noise:s-sync:fm", "noise:s-sync:am2"} <= names
        assert {"compile:murali", "verify:murali", "compile:dai", "verify:dai"} <= names

    def test_generated_scenarios_pass(self):
        for scenario in ScenarioGenerator(123).generate(8):
            run_oracle(scenario)

    def test_oracle_failing_predicate_is_false_on_clean_scenarios(self):
        assert oracle_failing(_small_scenario()) is False

    def test_oracle_failing_predicate_is_false_on_ill_formed(self):
        scenario = Scenario(
            circuit={"kind": "ghz", "num_qubits": 12},  # does not fit L-3 cap 3
            device=device_to_dict(linear_device(3, 3)),
        )
        assert not scenario.is_well_formed()
        assert oracle_failing(scenario) is False


class TestOracleFailures:
    def test_backend_parity_violation_is_caught(self, monkeypatch):
        """A backend emitting different bytes must trip ``parity:*``."""
        calls = {"n": 0}
        real = schedule_to_bytes

        def flaky(schedule):
            calls["n"] += 1
            data = real(schedule)
            # The reference encoding is call #1; corrupt a later call so
            # one backend's bytes appear to differ.
            return data + b"x" if calls["n"] == 2 else data

        monkeypatch.setattr(oracle_module, "schedule_to_bytes", flaky)
        with pytest.raises(OracleFailure) as excinfo:
            run_oracle(_small_scenario())
        assert excinfo.value.check.startswith("parity:")

    def test_compiler_crash_is_folded_into_oracle_failure(self, monkeypatch):
        def boom(*args, **kwargs):
            raise IndexError("scheduler core bug")

        monkeypatch.setattr(oracle_module.SSyncCompiler, "compile", boom)
        with pytest.raises(OracleFailure) as excinfo:
            run_oracle(_small_scenario())
        assert excinfo.value.check == "compile:naive"
        assert "IndexError" in excinfo.value.detail

    def test_failure_carries_the_scenario(self, monkeypatch):
        monkeypatch.setattr(
            oracle_module,
            "verify_schedule",
            lambda *a, **k: (_ for _ in ()).throw(ValueError("bad replay")),
        )
        scenario = _small_scenario()
        with pytest.raises(OracleFailure) as excinfo:
            run_oracle(scenario)
        assert excinfo.value.scenario is scenario
        assert excinfo.value.check == "verify:s-sync"

    def test_predicate_is_true_under_an_injected_bug(self, monkeypatch):
        monkeypatch.setattr(
            oracle_module.SSyncCompiler,
            "compile",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        assert oracle_failing(_small_scenario()) is True
