"""Crash recovery: the registered recovery procedures and their router.

Four procedures, one per persistence design point:

* ``anubis``  — shadow-table replay (ToC + lazy tracking, the paper's
  baseline and both Soteria variants);
* ``osiris``  — counter trials + whole-tree regeneration (BMT, no
  tracking at all);
* ``triad``   — relaxed regeneration above the strictly-persisted
  bottom levels (Triad-NVM's ``selective`` policy);
* ``phoenix`` — top-down reseal of the persistently-secure ToC
  (Phoenix's ``batched`` policy).

:func:`recover_image` routes a :class:`~repro.controller.CrashImage` to
the right procedure: the image's recorded scheme decides (via the
:mod:`repro.schemes` registry); images from scheme-less controllers
fall back to their integrity mode's own procedure
(``IntegrityMode.recovery``: ToC -> anubis, BMT -> osiris).
"""

from __future__ import annotations

from repro.controller.strategy import integrity_class
from repro.recovery.anubis import RecoveryManager, RecoveryReport
from repro.recovery.osiris import OsirisRecovery, OsirisReport
from repro.recovery.phoenix import PhoenixRecovery, PhoenixReport
from repro.recovery.triad import TriadRecovery, TriadReport

#: Registered recovery procedures; scheme plugins name one of these (or
#: register their own before building controllers).
RECOVERY_PROCEDURES = {
    "anubis": RecoveryManager,
    "osiris": OsirisRecovery,
    "triad": TriadRecovery,
    "phoenix": PhoenixRecovery,
}


def recovery_procedure_for(image) -> str:
    """The procedure name a crash image should recover under."""
    if image.scheme:
        from repro.schemes import resolve_scheme

        return resolve_scheme(image.scheme).recovery_procedure(
            image.integrity_mode
        )
    return integrity_class(image.integrity_mode).recovery


def recover_image(image):
    """Recover a crash image under its scheme's procedure.

    Returns ``(controller, report)`` — the report type depends on the
    procedure that ran.
    """
    name = recovery_procedure_for(image)
    try:
        procedure = RECOVERY_PROCEDURES[name]
    except KeyError:
        raise ValueError(
            f"unknown recovery procedure {name!r}; registered: "
            f"{', '.join(sorted(RECOVERY_PROCEDURES))}"
        ) from None
    return procedure(image).recover()


__all__ = [
    "OsirisRecovery",
    "OsirisReport",
    "PhoenixRecovery",
    "PhoenixReport",
    "RECOVERY_PROCEDURES",
    "RecoveryManager",
    "RecoveryReport",
    "TriadRecovery",
    "TriadReport",
    "recover_image",
    "recovery_procedure_for",
]
