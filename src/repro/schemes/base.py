"""The ``SecurityScheme`` plugin interface and its registry.

A *scheme* bundles the four things a persistence-security design
chooses (ROADMAP: "counter layout, tree update policy, persist policy,
recovery procedure"):

* **cloning policy** — how many copies each metadata level keeps
  (:class:`~repro.controller.policy.CloningPolicy` and friends);
* **shadow codec** — the crash-tracking entry layout (Anubis single
  entries vs Soteria's duplicated Figure-8b format);
* **update/persist policy** — when metadata reaches NVM (``lazy``,
  ``eager``, Triad-NVM's ``selective`` bottom-N levels, Phoenix's
  ``batched`` whole-estate flush every N writes), optionally pinned
  together with an **integrity mode** (``toc`` / ``bmt``);
* **recovery procedure** — how a crash image is brought back to a
  consistent state (Anubis shadow replay, Osiris regeneration, Triad's
  relaxed upper-level rebuild, Phoenix's top-down reseal).

A scheme pins these as *names*: the controller resolves them into its
strategy objects (:mod:`repro.controller.strategy`), which own the
behaviour, the defaults and the cross-validity rules.

Schemes register by name; every consumer resolves names through
:func:`resolve_scheme`, so adding a scheme here makes it available to
``repro.sim``, the fault campaigns, the crash-point harness, and every
``--schemes`` CLI flag at once.  Out-of-tree code registers its own
entries with :func:`register_scheme`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.controller.policy import CloningPolicy
from repro.controller.shadow import AnubisShadowCodec
from repro.controller.strategy import integrity_class
from repro.memory import tree_level_sizes

#: The trio every paper figure is pinned to, in the paper's order.
PAPER_SCHEMES = ("baseline", "src", "sac")

#: Analysis-only pseudo-scheme names (no integrity metadata at all);
#: accepted by the loss-decomposition tables, never registered.
NON_SECURE_SCHEMES = ("non-secure", "nonsecure")


@dataclass(frozen=True)
class SecurityScheme:
    """One point in the persistence-security design space.

    ``clone_policy`` and ``shadow_codec`` are zero-argument factories —
    a scheme is a *description*; each built controller gets fresh policy
    objects.  ``update_policy`` / ``integrity_mode`` / ``persist_*``
    are ``None`` when the scheme leaves that knob to the caller (the
    Soteria cloning schemes compose with either integrity mode), or a
    pinned value the scheme's recovery procedure depends on.
    """

    name: str
    description: str
    clone_policy: object = CloningPolicy
    shadow_codec: object = AnubisShadowCodec
    update_policy: str = None
    integrity_mode: str = None
    persist_levels: int = None
    persist_batch: int = None
    #: Registered recovery-procedure name (see
    #: :data:`repro.recovery.RECOVERY_PROCEDURES`); ``None`` defers to
    #: the integrity mode's own (``IntegrityMode.recovery``).
    recovery: str = None
    aliases: tuple = ()
    builtin: bool = False
    #: The scheme others are measured against (resilience ratios,
    #: overhead-vs-reference columns).  Exactly one builtin carries it.
    is_reference: bool = False

    def controller_kwargs(self) -> dict:
        """The constructor kwargs this scheme pins (unpinned knobs are
        omitted, so callers keep the controller defaults)."""
        kwargs = {}
        if self.update_policy is not None:
            kwargs["update_policy"] = self.update_policy
        if self.integrity_mode is not None:
            kwargs["integrity_mode"] = self.integrity_mode
        if self.persist_levels is not None:
            kwargs["persist_levels"] = self.persist_levels
        if self.persist_batch is not None:
            kwargs["persist_batch"] = self.persist_batch
        return kwargs

    def build(self, data_bytes: int, **kwargs):
        """Build a :class:`~repro.controller.SecureMemoryController`
        configured for this scheme.  Caller kwargs win over the
        scheme's pinned knobs (explicit beats default)."""
        from repro.controller import SecureMemoryController

        merged = self.controller_kwargs()
        merged.update(kwargs)
        merged.setdefault("scheme_name", self.name)
        return SecureMemoryController(
            data_bytes,
            clone_policy=self.clone_policy(),
            shadow_codec=self.shadow_codec(),
            **merged,
        )

    def depth_map(self, num_levels: int) -> dict:
        """{level: copies} for a tree of ``num_levels`` levels."""
        return self.clone_policy().depth_map(num_levels)

    def depths_for(self, data_bytes: int) -> dict:
        """{level: copies} for a memory of ``data_bytes``."""
        return self.depth_map(len(tree_level_sizes(data_bytes // 64)))

    def effective_integrity_mode(self, requested: str = None) -> str:
        """The integrity mode this scheme runs under when a caller asks
        for ``requested``: the scheme's pin wins, then ``requested``,
        then the default.  Raises ``ValueError`` for an unknown mode."""
        return integrity_class(self.integrity_mode or requested).name

    def recovery_procedure(self, integrity_mode: str = None) -> str:
        """The effective recovery-procedure name for this scheme under
        ``integrity_mode`` (which the scheme's own pin overrides)."""
        if self.recovery is not None:
            return self.recovery
        return integrity_class(self.effective_integrity_mode(integrity_mode)).recovery


_REGISTRY: dict = {}


def register_scheme(scheme: SecurityScheme, replace_existing: bool = False):
    """Register ``scheme`` under its name and aliases (case-insensitive).

    Third-party code calls this at import time to make a scheme
    resolvable everywhere a scheme string is accepted.  Returns the
    scheme, so it doubles as a module-level registration statement.
    """
    names = (scheme.name,) + tuple(scheme.aliases)
    keys = [name.lower() for name in names]
    if not replace_existing:
        for key in keys:
            existing = _REGISTRY.get(key)
            if existing is not None and existing is not scheme:
                raise ValueError(
                    f"scheme name {key!r} already registered by "
                    f"{existing.name!r}; pass replace_existing=True "
                    "to override"
                )
    for key in keys:
        _REGISTRY[key] = scheme
    return scheme


def unregister_scheme(name: str) -> None:
    """Remove a scheme and all its aliases (tests / plugin teardown)."""
    scheme = resolve_scheme(name)
    for key, value in list(_REGISTRY.items()):
        if value.name == scheme.name:
            del _REGISTRY[key]


def resolve_scheme(name) -> SecurityScheme:
    """Look up a scheme by name or alias (case-insensitive).

    A :class:`SecurityScheme` instance passes straight through, so code
    can accept either form.  Raises the one uniform unknown-scheme
    error every consumer shares.
    """
    if isinstance(name, SecurityScheme):
        return name
    scheme = _REGISTRY.get(str(name).lower())
    if scheme is None:
        raise ValueError(
            f"unknown scheme {name!r}; registered schemes: "
            f"{', '.join(scheme_names())}"
        )
    return scheme


def scheme_names() -> tuple:
    """Canonical names of every registered scheme, sorted with the
    paper trio first (figure/CLI ordering), then alphabetically."""
    canonical = {scheme.name for scheme in _REGISTRY.values()}
    head = [name for name in PAPER_SCHEMES if name in canonical]
    tail = sorted(canonical - set(head))
    return tuple(head + tail)


def all_schemes() -> tuple:
    """Every registered scheme, in :func:`scheme_names` order."""
    return tuple(resolve_scheme(name) for name in scheme_names())


def reference_scheme() -> SecurityScheme:
    """The registered reference scheme (the comparison baseline)."""
    for scheme in all_schemes():
        if scheme.is_reference:
            return scheme
    raise ValueError("no registered scheme carries is_reference=True")
