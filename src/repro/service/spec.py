"""The service's sweep-spec wire format.

A :class:`SweepSpec` is the canonical description of one sweep request:
which Figure-6 fault panel, which bins/schemes/seed/horizon, which
execution knobs.  Validation happens here, once, at the edge -- every
later layer (queue, worker, store) trusts the spec.

Identity: :meth:`SweepSpec.identity` extends the journal fingerprint
(:func:`repro.harness.sweep._sweep_fingerprint`) with the fault regime,
because fault draws are deliberately *not* part of the journal
fingerprint (they are rebuilt deterministically by the scenario factory)
yet absolutely change the result a client gets back.  Two specs with
equal :meth:`digest` are served the same stored result; execution-mode
knobs (backend, collect_trace, validate=0) are excluded from the
identity exactly like the journal fingerprint excludes them -- the
engine guarantees identical payloads in every mode, so a result computed
on the batch backend is a legitimate cache hit for a pool-backend
submission.  A nonzero ``validate`` *is* part of the identity: it adds
``validation_issues`` to the served document.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

from ..energy.dvfs import DVFSConfig
from ..errors import ConfigurationError
from ..harness.protocol import DEFAULT_BINS, ExperimentProtocol
from ..harness.runner import PAPER_SCHEMES, SCHEME_FACTORIES, RunSpec
from ..harness.sweep import _sweep_fingerprint, check_backend
from ..workload.release import ReleaseModel

#: Fault regimes, mapping onto the Figure 6 panels.
FAULT_REGIMES = ("none", "permanent", "transient")


def _default_scale() -> ExperimentProtocol:
    return ExperimentProtocol.smoke()


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _typed(payload: Dict[str, Any], key: str, kind: type, label: str) -> Any:
    """``payload[key]``, which must be of JSON type ``kind``.

    No coercion: a float, bool, or string where an integer belongs would
    otherwise be served under the digest of a sweep nobody asked for.
    """
    value = payload[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigurationError(f"{key} must be {label}, got {value!r}")
    return value


@dataclass(frozen=True)
class SweepSpec:
    """One validated sweep request.

    Scale defaults follow the smoke protocol (the ``repro-mk sweep``
    CLI's defaults), so a bare ``{"faults": "none"}`` submission is a
    quick, well-defined sweep.
    """

    faults: str = "none"
    bins: Tuple[Tuple[float, float], ...] = tuple(DEFAULT_BINS)
    schemes: Tuple[str, ...] = tuple(PAPER_SCHEMES)
    reference_scheme: str = "MKSS_ST"
    sets_per_bin: int = field(default_factory=lambda: _default_scale().sets_per_bin)
    seed: int = field(default_factory=lambda: _default_scale().seed)
    horizon_cap_units: int = field(
        default_factory=lambda: _default_scale().horizon_cap_units
    )
    backend: str = "pool"
    collect_trace: bool = False
    validate: int = 0
    release_model: Optional[ReleaseModel] = None
    initial_history: str = "met"
    dvfs: Optional[DVFSConfig] = None

    def __post_init__(self) -> None:
        # The RunSpec normalizes periodic models and no-op DVFS configs
        # to None, so explicit defaults digest like the historical ones.
        run = self.run_spec()
        for name in ("release_model", "initial_history", "dvfs"):
            object.__setattr__(self, name, getattr(run, name))
        if self.faults not in FAULT_REGIMES:
            raise ConfigurationError(
                f"unknown faults regime {self.faults!r}; "
                f"choose from {FAULT_REGIMES}"
            )
        unknown = sorted(set(self.schemes) - set(SCHEME_FACTORIES))
        if unknown:
            raise ConfigurationError(
                f"unknown scheme(s) {unknown}; known: "
                f"{sorted(SCHEME_FACTORIES)}"
            )
        if self.reference_scheme not in self.schemes:
            raise ConfigurationError(
                f"reference scheme {self.reference_scheme!r} must be in "
                f"{list(self.schemes)}"
            )
        check_backend(self.backend)
        for lo, hi in self.bins:
            if not lo < hi:
                raise ConfigurationError(f"bad bin [{lo}, {hi}): need lo < hi")
        if self.sets_per_bin < 1:
            raise ConfigurationError(
                f"sets_per_bin must be >= 1, got {self.sets_per_bin}"
            )
        if self.validate < 0:
            raise ConfigurationError(
                f"validate must be >= 0, got {self.validate}"
            )

    def run_spec(self) -> RunSpec:
        """The spec's per-run knobs and execution mode."""
        return RunSpec(
            horizon_cap_units=self.horizon_cap_units,
            release_model=self.release_model,
            initial_history=self.initial_history,
            dvfs=self.dvfs,
            collect_trace=self.collect_trace,
        )

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SweepSpec":
        """Build a spec from a submitted JSON document, strictly.

        Unknown keys are rejected -- a typoed knob silently falling back
        to its default would hand the client a sweep it did not ask for
        (and a cache key it did not expect).  The one exception is the
        retired ``"fold"`` mode flag: job records persisted while it
        existed still carry it, so a JSON boolean there is accepted and
        discarded (it never entered the digest).
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"sweep spec must be a JSON object, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known - {"fold"})
        if unknown:
            raise ConfigurationError(
                f"unknown sweep-spec key(s) {unknown}; known: {sorted(known)}"
            )
        kwargs: Dict[str, Any] = {}
        for key in ("faults", "reference_scheme", "backend", "initial_history"):
            if key in payload:
                kwargs[key] = _typed(payload, key, str, "a JSON string")
        for key in ("sets_per_bin", "seed", "horizon_cap_units", "validate"):
            if key in payload:
                kwargs[key] = _typed(payload, key, int, "a JSON integer")
        if "collect_trace" in payload:
            kwargs["collect_trace"] = _typed(
                payload, "collect_trace", bool, "a JSON boolean"
            )
        if "fold" in payload:
            _typed(payload, "fold", bool, "a JSON boolean")
        if "bins" in payload:
            bins = _typed(payload, "bins", list, "a JSON list")
            for pair in bins:
                if not (
                    isinstance(pair, list)
                    and len(pair) == 2
                    and all(_is_number(bound) for bound in pair)
                ):
                    raise ConfigurationError(
                        f"each bin must be a [lo, hi] pair of numbers, "
                        f"got {pair!r}"
                    )
            kwargs["bins"] = tuple((float(lo), float(hi)) for lo, hi in bins)
        if "schemes" in payload:
            schemes = _typed(payload, "schemes", list, "a JSON list")
            if not all(isinstance(scheme, str) for scheme in schemes):
                raise ConfigurationError(
                    f"schemes must be a list of strings, got {schemes!r}"
                )
            kwargs["schemes"] = tuple(schemes)
        # A preset name, a {"kind": ...} document, or null for the release
        # model; an {"alpha": ...} document or null for DVFS.  The
        # RunSpec built in __post_init__ validates both.
        for key in ("release_model", "dvfs"):
            if key in payload:
                kwargs[key] = payload[key]
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """The spec as a JSON-able document (inverse of :meth:`from_dict`)."""
        payload: Dict[str, Any] = {
            "faults": self.faults,
            "bins": [[lo, hi] for lo, hi in self.bins],
            "schemes": list(self.schemes),
            "reference_scheme": self.reference_scheme,
            "sets_per_bin": self.sets_per_bin,
            "seed": self.seed,
            "horizon_cap_units": self.horizon_cap_units,
            "backend": self.backend,
            "collect_trace": self.collect_trace,
            "validate": self.validate,
        }
        # Conditional keys keep pre-knob job documents byte-identical.
        payload.update(self.run_spec().canonical())
        return payload

    def journal_fingerprint(self) -> Dict[str, Any]:
        """The fingerprint the job's :class:`RunJournal` header carries."""
        return _sweep_fingerprint(
            list(self.bins),
            list(self.schemes),
            self.sets_per_bin,
            self.reference_scheme,
            None,  # generator config: service sweeps use the defaults
            self.seed,
            None,  # workload is always generated server-side
            self.run_spec(),
        )

    def identity(self) -> Dict[str, Any]:
        """The result-cache identity (journal fingerprint + fault regime)."""
        identity = dict(self.journal_fingerprint())
        identity["faults"] = self.faults
        if self.validate:
            identity["validate"] = self.validate
        return identity

    def digest(self) -> str:
        """Stable hex key for the store, the journal path, and the job id."""
        blob = json.dumps(self.identity(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:24]

    def run(
        self,
        *,
        workers: int = 1,
        journal_path: Optional[str] = None,
        resume: bool = False,
        force_new: bool = False,
        events=None,
        generation_store=None,
    ):
        """Execute this spec exactly as the CLI would run the panel.

        Thin wrapper over the Figure-6 panel functions so a service job,
        a CLI sweep, and a test's direct reference run share one code
        path -- the byte-identity guarantees hang off that.

        ``generation_store`` is an execution knob (a shared task-set
        cache); it never enters the spec identity or the results.
        """
        from ..harness.figures import fig6a, fig6b, fig6c

        panel = {"none": fig6a, "permanent": fig6b, "transient": fig6c}[
            self.faults
        ]
        return panel(
            bins=list(self.bins),
            schemes=list(self.schemes),
            sets_per_bin=self.sets_per_bin,
            seed=self.seed,
            workers=workers,
            backend=self.backend,
            journal_path=journal_path,
            resume=resume,
            force_new=force_new,
            events=events,
            validate=self.validate,
            generation_store=generation_store,
            collect_trace=self.collect_trace,
            **self.run_spec().knobs(),
        )
