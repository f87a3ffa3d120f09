"""Unit tests for compile jobs and deterministic fingerprinting."""

from __future__ import annotations

import multiprocessing

import pytest

import repro.runtime.jobs as jobs_module
from repro.circuit.library import build_benchmark, qft_circuit
from repro.core.compiler import SSyncConfig
from repro.exceptions import ReproError
from repro.hardware.presets import paper_device
from repro.registry import normalize_compiler_name
from repro.runtime.jobs import (
    CompileJob,
    _named_circuit_fingerprint,
    _named_device_fingerprint,
    circuit_fingerprint,
    compile_job,
    config_fingerprint,
    device_fingerprint,
)

#: One small circuit of every family the Figs. 8-12 sweep grid uses.
_SWEEP_FAMILY_CIRCUITS = ("qft_10", "adder_4", "qaoa_8", "alt_8", "bv_10", "heisenberg_8")


def _fingerprints_in_subprocess(queue):
    # Recreate the same job from names only, in a fresh interpreter.
    job = CompileJob(circuit="qft_10", device="G-2x2", gate_implementation="am2")
    queue.put((job.compile_fingerprint(), job.fingerprint()))


class TestFingerprints:
    def test_stable_across_processes(self):
        """Fingerprints must not depend on per-process hash randomisation."""
        job = CompileJob(circuit="qft_10", device="G-2x2", gate_implementation="am2")
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        proc = ctx.Process(target=_fingerprints_in_subprocess, args=(queue,))
        proc.start()
        remote = queue.get(timeout=60)
        proc.join(timeout=60)
        assert remote == (job.compile_fingerprint(), job.fingerprint())

    def test_named_and_concrete_specs_agree(self):
        for name in _SWEEP_FAMILY_CIRCUITS:
            by_name = CompileJob(circuit=name, device="G-2x2")
            concrete = CompileJob(circuit=build_benchmark(name), device=paper_device("G-2x2"))
            assert by_name.compile_fingerprint() == concrete.compile_fingerprint(), name
            assert by_name.fingerprint() == concrete.fingerprint(), name

    def test_default_config_is_canonical(self):
        assert (
            CompileJob(circuit="qft_10", device="G-2x2").compile_fingerprint()
            == CompileJob(
                circuit="qft_10", device="G-2x2", config=SSyncConfig()
            ).compile_fingerprint()
        )
        assert config_fingerprint(None) == config_fingerprint(SSyncConfig())

    def test_evaluation_settings_do_not_touch_compile_fingerprint(self):
        fm = CompileJob(circuit="qft_10", device="G-2x2", gate_implementation="fm")
        am2 = CompileJob(circuit="qft_10", device="G-2x2", gate_implementation="am2")
        assert fm.compile_fingerprint() == am2.compile_fingerprint()
        assert fm.fingerprint() != am2.fingerprint()

    def test_compile_inputs_change_the_fingerprint(self):
        base = CompileJob(circuit="qft_10", device="G-2x2")
        assert base.compile_fingerprint() != CompileJob(
            circuit="qft_12", device="G-2x2"
        ).compile_fingerprint()
        assert base.compile_fingerprint() != CompileJob(
            circuit="qft_10", device="L-4"
        ).compile_fingerprint()
        assert base.compile_fingerprint() != CompileJob(
            circuit="qft_10", device="G-2x2", initial_mapping="sta"
        ).compile_fingerprint()
        assert base.compile_fingerprint() != CompileJob(
            circuit="qft_10", device="G-2x2", compiler="murali"
        ).compile_fingerprint()

    def test_presentation_metadata_is_ignored(self):
        plain = CompileJob(circuit="qft_10", device="G-2x2")
        decorated = CompileJob(
            circuit="qft_10", device="G-2x2", label="x", parameter="p", value=3
        )
        assert plain.fingerprint() == decorated.fingerprint()

    def test_circuit_fingerprint_sees_gate_content(self):
        assert circuit_fingerprint(qft_circuit(8)) != circuit_fingerprint(qft_circuit(9))

    def test_device_fingerprint_sees_capacity(self):
        assert device_fingerprint(paper_device("G-2x2", 6)) != device_fingerprint(
            paper_device("G-2x2", 8)
        )


class TestNamedFingerprintMemo:
    """Named circuits and devices are fingerprinted once per process."""

    @pytest.fixture
    def build_calls(self, monkeypatch):
        calls: list[str] = []
        real = jobs_module.build_benchmark

        def counting(name):
            calls.append(name)
            return real(name)

        monkeypatch.setattr(jobs_module, "build_benchmark", counting)
        _named_circuit_fingerprint.cache_clear()
        yield calls
        _named_circuit_fingerprint.cache_clear()

    def test_one_build_per_circuit_name(self, build_calls):
        first = CompileJob(circuit="qft_10", device="G-2x2")
        second = CompileJob(circuit="qft_10", device="L-4", gate_implementation="am2")
        first.compile_fingerprint()
        second.fingerprint()
        assert build_calls == ["qft_10"]

    def test_bad_name_raises_every_time(self, build_calls):
        for _ in range(2):
            with pytest.raises(ReproError):
                CompileJob(circuit="qft", device="G-2x2").compile_fingerprint()
        assert build_calls == ["qft", "qft"]

    def test_device_memo_sees_capacity(self):
        assert _named_device_fingerprint("G-2x2", 6) != _named_device_fingerprint("G-2x2", 8)
        assert _named_device_fingerprint("G-2x2", 6) == device_fingerprint(
            paper_device("G-2x2", 6)
        )
        assert _named_device_fingerprint("G-2x2", None) == device_fingerprint(
            paper_device("G-2x2")
        )
        assert (
            CompileJob(circuit="qft_10", device="G-2x2", capacity=6).compile_fingerprint()
            != CompileJob(circuit="qft_10", device="G-2x2", capacity=8).compile_fingerprint()
        )

    def test_per_trap_capacity_sequence_bypasses_the_memo(self):
        expected = device_fingerprint(paper_device("G-2x2", [4, 5, 6, 7]))
        for capacity in ([4, 5, 6, 7], (4, 5, 6, 7)):
            job = CompileJob(circuit="qft_10", device="G-2x2", capacity=capacity)
            assert job.compile_key()["device"] == expected

    def test_mixed_case_name_fingerprints_like_lower_case(self):
        upper = CompileJob(circuit="QFT_10", device="G-2x2")
        lower = CompileJob(circuit="qft_10", device="G-2x2")
        assert upper.compile_fingerprint() == lower.compile_fingerprint()
        assert upper.fingerprint() == lower.fingerprint()


class TestJobResolution:
    def test_unknown_compiler_rejected(self):
        with pytest.raises(ReproError):
            normalize_compiler_name("qiskit")
        with pytest.raises(ReproError):
            CompileJob(circuit="qft_10", device="G-2x2", compiler="qiskit").compile_fingerprint()

    def test_ssync_aliases_normalise(self):
        assert normalize_compiler_name("This Work") == "s-sync"
        assert normalize_compiler_name("ssync") == "s-sync"

    def test_capacity_with_concrete_device_rejected(self):
        job = CompileJob(circuit="qft_10", device=paper_device("G-2x2"), capacity=9)
        with pytest.raises(ReproError):
            job.resolve_device()

    def test_resolved_mapping_defaults(self):
        assert CompileJob(circuit="qft_10", device="G-2x2").resolved_mapping() == "gathering"
        assert (
            CompileJob(circuit="qft_10", device="G-2x2", initial_mapping="sta").resolved_mapping()
            == "sta"
        )
        assert (
            CompileJob(circuit="qft_10", device="G-2x2", compiler="murali").resolved_mapping()
            == ""
        )

    def test_compile_job_dispatches_baselines(self):
        result = compile_job(CompileJob(circuit="bv_12", device="L-4", compiler="dai"))
        assert result.compiler_name == "dai"
        assert result.schedule.two_qubit_gate_count == 12
