"""Exception hierarchy for the S-SYNC reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so a
caller embedding the compiler can catch a single exception type at its
boundary while still being able to discriminate finer-grained failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class CircuitError(ReproError):
    """Raised for malformed circuits or gates (bad qubit index, arity...)."""


class DeviceError(ReproError):
    """Raised for malformed QCCD device descriptions."""


class MappingError(ReproError):
    """Raised when an initial mapping cannot be constructed.

    Typical causes: the circuit uses more qubits than the device has
    slots, or a mapping strategy is asked to place qubits on a trap that
    is already full.
    """


class SchedulingError(ReproError):
    """Raised when the scheduler cannot make progress on a circuit."""


class StateError(ReproError):
    """Raised for invalid mutations of the device occupancy state."""


class NoiseModelError(ReproError):
    """Raised for invalid noise / timing model configurations."""


class ManifestError(ReproError):
    """Raised for malformed job manifests / batch requests.

    Covers everything a declarative job description can get wrong —
    invalid JSON, unknown keys, unknown compiler names, device specs
    that do not resolve — so service front-ends can map exactly this
    type onto a structured 4xx response while treating every other
    :class:`ReproError` as a server-side failure.
    """


class JobCancelledError(ReproError):
    """Cooperative-cancellation signal for an in-flight service job.

    Raised from inside a batch's ``on_outcome`` callback (and caught by
    the service scheduler) when :meth:`ServiceJob.cancel` was requested
    while the job was running: the engine stops draining outcomes between
    compilations and the job lands in the terminal ``cancelled`` state.
    Library users never see this escape the service layer.
    """


class ServiceError(ReproError):
    """An error response of the compilation service.

    Raised by the client, and by a service backend that answers with an
    error of its own (a fleet relaying a worker, a ``409`` cancel); the
    HTTP handler sends an ``{"error": ...}`` ``payload`` back verbatim.
    Carries the HTTP ``status`` and the structured error ``payload``
    (the parsed JSON body) alongside the message.
    """

    def __init__(
        self, message: str, status: int = 0, payload: "dict | None" = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}
