"""Episode-kind protocol: what makes the fleet engine workload-polymorphic.

The worker shards, supervisor, checkpoint journal, and chaos harness
know nothing about *what* an episode computes — they move opaque specs and
results through chunk leases and journal records.  What a campaign's
episodes mean lives behind an :class:`EpisodeKind`:

* **spec expansion** — how a :class:`~repro.fleet.campaign.CampaignSpec`'s
  axes turn into deterministic per-episode specs (and how the grid is
  validated and sized);
* **result (de)serialization** — the bit-exact JSON round trip the durable
  journal stores per episode;
* **aggregation** — the per-cell statistics object results fold into.

Built-in kinds: ``"waypoint"`` and ``"recovery"`` (HIL episodes, defined in
:mod:`repro.fleet.campaign`) and ``"design_point"`` (design-space
exploration, defined in :mod:`repro.fleet.design_point`).  Execution is
not a kind hook: :class:`~repro.fleet.supervisor.ChunkRunner` flies HIL
specs through the scheduler and evaluates design-point specs directly.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = [
    "EpisodeKind",
    "register_episode_kind",
    "get_episode_kind",
    "kind_for_result",
    "episode_kind_names",
]


class EpisodeKind:
    """One campaign workload: expansion, serialization, cells.

    Subclasses set two class attributes and implement the hooks below.
    ``name`` is the value of ``CampaignSpec.episode_kind`` / the ``"kind"``
    tag in serialized results; ``cell_axes`` documents the column order of
    the cell key.
    """

    name: str = ""
    cell_axes: Tuple[str, ...] = ()

    # -- campaign-level hooks ------------------------------------------------
    def validate(self, campaign) -> None:
        """Raise ``ValueError`` when the campaign's axes are invalid."""
        raise NotImplementedError

    def expand(self, campaign) -> List:
        """The campaign's episode specs, in the documented order."""
        raise NotImplementedError

    def size(self, campaign) -> int:
        return len(self.expand(campaign))

    def describe(self, campaign) -> str:
        return "campaign {!r}: {} {} episodes".format(
            campaign.name, self.size(campaign), self.name)

    # -- result (de)serialization -------------------------------------------
    def owns_result(self, result) -> bool:
        """True when ``result`` is this kind's episode outcome type."""
        raise NotImplementedError

    def result_to_dict(self, result) -> Dict[str, object]:
        """JSON-safe rendering carrying a ``"kind"`` tag; bit-exact inverse
        of :meth:`result_from_dict` (the journal-replay contract)."""
        raise NotImplementedError

    def result_from_dict(self, payload: Dict[str, object]):
        raise NotImplementedError

    # -- aggregation ---------------------------------------------------------
    def new_cell(self, key: Tuple):
        """A fresh per-cell aggregate for this kind."""
        raise NotImplementedError


_REGISTRY: Dict[str, EpisodeKind] = {}


def _ensure_builtin_kinds() -> None:
    # Imported for their registration side effects.  Lazy so this module
    # stays import-cycle-free (campaign and design_point both import it).
    from . import campaign, design_point  # noqa: F401


def register_episode_kind(kind: EpisodeKind) -> EpisodeKind:
    """Register a kind under ``kind.name`` (idempotent per name)."""
    if not kind.name:
        raise ValueError("episode kind must set a non-empty name")
    _REGISTRY[kind.name] = kind
    return kind


def get_episode_kind(name: str) -> EpisodeKind:
    if name not in _REGISTRY:
        _ensure_builtin_kinds()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError("unknown episode_kind {!r}; options: {}".format(
            name, ", ".join(episode_kind_names()))) from None


def kind_for_result(result) -> EpisodeKind:
    """The registered kind whose episodes produce ``result``."""
    if not _REGISTRY:
        _ensure_builtin_kinds()
    for kind in _REGISTRY.values():
        if kind.owns_result(result):
            return kind
    _ensure_builtin_kinds()
    for kind in _REGISTRY.values():
        if kind.owns_result(result):
            return kind
    raise TypeError("unknown episode result type: {!r}".format(type(result)))


def episode_kind_names() -> Tuple[str, ...]:
    """Registered kind names in registration order (deterministic: the
    built-ins register as waypoint, recovery, design_point)."""
    if not _REGISTRY:
        _ensure_builtin_kinds()
    return tuple(_REGISTRY)
