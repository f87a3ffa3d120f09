"""Unit tests for the single compiler registry (repro.registry)."""

from __future__ import annotations

import pytest

from repro.analysis.metrics import compile_with
from repro.circuit.library import qft_circuit
from repro.core.compiler import SSyncCompiler
from repro.exceptions import ReproError
from repro.pipeline import CompilerPipeline
from repro.registry import (
    available_compilers,
    compiler_spec,
    make_pipeline,
    normalize_compiler_name,
    register_compiler,
    registered_names,
    unregister_compiler,
)
from repro.runtime.api import run_batch
from repro.runtime.jobs import CompileJob


class TestBuiltins:
    def test_all_three_compilers_registered(self):
        assert registered_names() == ("dai", "murali", "s-sync")

    def test_aliases_resolve(self):
        assert normalize_compiler_name("This Work") == "s-sync"
        assert normalize_compiler_name("ssync") == "s-sync"
        assert normalize_compiler_name("S-SYNC") == "s-sync"
        assert normalize_compiler_name("Murali") == "murali"
        assert normalize_compiler_name("dai") == "dai"

    def test_unknown_name_lists_available(self):
        with pytest.raises(ReproError, match="registered: dai, murali, s-sync"):
            normalize_compiler_name("qiskit")

    def test_specs_describe_capabilities(self):
        ssync = compiler_spec("s-sync")
        assert ssync.accepts_mapping and ssync.accepts_config
        assert ssync.default_mapping == "gathering"
        for baseline in ("murali", "dai"):
            spec = compiler_spec(baseline)
            assert not spec.accepts_mapping and not spec.accepts_config

    def test_make_pipeline_builds_every_compiler(self, grid_2x2):
        for spec in available_compilers():
            pipeline = make_pipeline(spec.name, grid_2x2)
            assert isinstance(pipeline, CompilerPipeline)
            assert pipeline.name == spec.name
            assert pipeline.pass_names()[0] == "initial-mapping"
            assert "routing" in pipeline.pass_names()
            assert pipeline.pass_names()[-1] == "metrics"

    def test_make_pipeline_with_verification(self, grid_2x2):
        pipeline = make_pipeline("s-sync", grid_2x2, verify=True)
        names = pipeline.pass_names()
        assert names.index("verify") == names.index("metrics") - 1


@pytest.fixture
def custom_compiler():
    """Register a throwaway backend (an S-SYNC pipeline under a new name)."""

    def factory(device, config=None):
        return CompilerPipeline(
            "custom-router", device, SSyncCompiler(device, config).pipeline().passes
        )

    spec = register_compiler(
        "custom-router",
        factory,
        aliases=("custom",),
        description="test backend",
        accepts_config=True,
    )
    yield spec
    unregister_compiler("custom-router")


class TestRegistration:
    def test_registered_name_and_alias_resolve(self, custom_compiler):
        assert normalize_compiler_name("Custom") == "custom-router"
        assert "custom-router" in registered_names()

    def test_unregister_removes_name_and_aliases(self, custom_compiler):
        unregister_compiler("custom")
        with pytest.raises(ReproError):
            normalize_compiler_name("custom-router")
        # Re-register so the fixture's cleanup unregister still succeeds.
        register_compiler("custom-router", custom_compiler.factory, aliases=("custom",))

    def test_duplicate_name_rejected_without_overwrite(self, custom_compiler):
        with pytest.raises(ReproError, match="already registered"):
            register_compiler("custom-router", custom_compiler.factory)

    def test_overwrite_replaces_spec(self, custom_compiler):
        replacement = register_compiler(
            "custom-router",
            custom_compiler.factory,
            description="replaced",
            overwrite=True,
        )
        assert compiler_spec("custom-router") is replacement
        with pytest.raises(ReproError):  # old alias dropped by the overwrite
            normalize_compiler_name("custom")
        register_compiler(
            "custom-router", custom_compiler.factory, aliases=("custom",), overwrite=True
        )

    def test_alias_collision_rejected(self, custom_compiler):
        with pytest.raises(ReproError, match="alias"):
            register_compiler("another", custom_compiler.factory, aliases=("ssync",))

    def test_builtin_alias_cannot_become_a_name(self, custom_compiler):
        with pytest.raises(ReproError, match="alias"):
            register_compiler("ssync", custom_compiler.factory)


class TestCustomCompilerEndToEnd:
    """A registered backend works through every entry point unchanged."""

    def test_compile_with_dispatches_custom_name(self, custom_compiler, grid_2x2):
        result = compile_with("custom", qft_circuit(10), grid_2x2)
        assert result.compiler_name == "custom-router"
        assert result.pass_timings  # pipeline profiling comes for free

    def test_batch_runtime_runs_custom_jobs(self, custom_compiler):
        job = CompileJob(circuit="qft_10", device="G-2x2", compiler="custom")
        batch = run_batch([job], workers=1)
        assert batch.records()[0]["compiler"] == "custom-router"

    def test_custom_fingerprint_differs_from_builtin(self, custom_compiler):
        builtin = CompileJob(circuit="qft_10", device="G-2x2")
        custom = CompileJob(circuit="qft_10", device="G-2x2", compiler="custom")
        assert builtin.compile_fingerprint() != custom.compile_fingerprint()

    def test_spawn_pool_falls_back_to_parent_for_custom_compilers(
        self, custom_compiler, monkeypatch
    ):
        """Spawned workers only know the built-ins; runtime-registered
        backends must compile in the parent process instead of crashing."""
        import multiprocessing

        from repro.runtime import pool as pool_module

        monkeypatch.setattr(
            pool_module, "_pool_context", lambda: multiprocessing.get_context("spawn")
        )
        jobs = [
            CompileJob(circuit="qft_10", device="G-2x2", compiler="custom"),
            CompileJob(circuit="qft_10", device="G-2x2", compiler="murali"),
            CompileJob(circuit="bv_12", device="G-2x2", compiler="s-sync"),
        ]
        batch = run_batch(jobs, workers=2)
        assert [r["compiler"] for r in batch.records()] == [
            "custom-router",
            "murali",
            "s-sync",
        ]

    def test_cli_lists_custom_compiler(self, custom_compiler, capsys):
        from repro.cli import main

        assert main(["compilers"]) == 0
        out = capsys.readouterr().out
        assert "custom-router" in out
        assert "s-sync" in out and "murali" in out and "dai" in out
