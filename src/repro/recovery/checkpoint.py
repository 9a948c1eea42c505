"""Durable checkpoints for sOA control-plane state.

The sOA's *durable* state — wear counters, template store history, the
grant ledger, and the last budget assignment — serializes to an in-sim
:class:`DurableStore` on a configurable cadence.  A restarted sOA
restores the latest checkpoint and re-derives everything else (stale
budget margins from the restored assignment age, templates from the
restored history); nothing is replayed.

Checkpoints are plain JSON-compatible payloads so equality is exact and
the round-trip property (checkpoint → restore → checkpoint is
bit-identical) is testable via canonical fingerprints.

A checkpoint body is composed from per-section fragments rather than
encoded whole: a value many checkpoints carry unchanged (a rack's budget
assignment, which every sOA on the rack checkpoints every round) is an
:class:`EncodedMapping`, encoded once and spliced into each body.  The
composed bytes equal one whole-body ``json.dumps`` (:func:`reference_body`,
the oracle the tests hold them to), so fingerprints and corruption
positions do not depend on how the body was built.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional, Union

__all__ = ["SoaCheckpoint", "GoaCheckpoint", "RestoreReport",
           "CheckpointLoad", "DurableStore", "EncodedMapping",
           "reference_body"]


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


class EncodedMapping(Mapping[str, Any]):
    """A read-only JSON object that carries its own canonical encoding.

    Built once from plain JSON data with immutable values (tuples, not
    lists) and shared by every checkpoint that references it; each body
    splices :attr:`fragment` instead of re-encoding the data.
    """

    __slots__ = ("_items", "fragment")

    def __init__(self, items: Mapping[str, Any]) -> None:
        self._items = dict(items)
        self.fragment = _canonical_json(self._items)

    def __getitem__(self, key: str) -> Any:
        return self._items[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


def _object(members: dict[str, str]) -> str:
    """A canonical JSON object from already-encoded member values."""
    return "{" + ",".join(f"{_canonical_json(key)}:{members[key]}"
                          for key in sorted(members)) + "}"


def _section_json(value: Any) -> str:
    """Canonical JSON of one payload section.

    An :class:`EncodedMapping` is spliced verbatim and a dict holding one
    is composed member by member; anything else is encoded whole.
    """
    if isinstance(value, EncodedMapping):
        return value.fragment
    if isinstance(value, dict) and any(
            isinstance(member, EncodedMapping) for member in value.values()):
        return _object({key: _section_json(member)
                        for key, member in value.items()})
    return _canonical_json(value)


@dataclass(frozen=True)
class SoaCheckpoint:
    """One durable snapshot of an sOA's checkpointed state."""

    server_id: str
    taken_at: float
    payload: dict[str, Any]

    def canonical_body(self) -> bytes:
        """Canonical JSON encoding — what the durable store fingerprints
        (and what a corruption fault flips bytes of).  Composed from one
        fragment per payload section; byte-identical to
        :func:`reference_body`."""
        payload = _object({key: _section_json(value)
                           for key, value in self.payload.items()})
        return _object({"payload": payload,
                        "server_id": _canonical_json(self.server_id),
                        "taken_at": _canonical_json(self.taken_at),
                        }).encode("utf-8")

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON encoding of the snapshot —
        the identity used by the bit-identical round-trip tests."""
        return _sha256(self.canonical_body())


def reference_body(checkpoint: SoaCheckpoint) -> bytes:
    """The body as one whole ``json.dumps`` of the snapshot: the oracle
    :meth:`SoaCheckpoint.canonical_body` must equal byte for byte."""
    return json.dumps(
        {"server_id": checkpoint.server_id, "taken_at": checkpoint.taken_at,
         "payload": checkpoint.payload},
        sort_keys=True, separators=(",", ":"), default=dict).encode("utf-8")


@dataclass(frozen=True)
class GoaCheckpoint:
    """One durable snapshot of a gOA's HA-relevant state.

    Far smaller than an sOA checkpoint by design: a promoted standby
    rebuilds profiles by *re-pulling* them from the live sOAs, so the
    only state that must survive a primary's death is the fencing epoch
    (and bookkeeping around it).  See :mod:`repro.core.goa_ha`.
    """

    rack_id: str
    taken_at: float
    payload: dict[str, Any]

    def canonical_body(self) -> bytes:
        return _canonical_json(
            {"rack_id": self.rack_id, "taken_at": self.taken_at,
             "payload": self.payload}).encode("utf-8")

    def fingerprint(self) -> str:
        return _sha256(self.canonical_body())


@dataclass(frozen=True)
class RestoreReport:
    """What a restarted sOA did with its checkpoint (audit record)."""

    server_id: str
    restored_at: float
    checkpoint_taken_at: Optional[float]  # None → cold start, no checkpoint
    grants_kept: int
    grants_revoked: int
    assignment_age_s: Optional[float]     # None → no assignment restored
    stale_margin: float
    checkpoint_budget_watts: Optional[float]
    restored_budget_watts: Optional[float]
    # True when a checkpoint existed but failed fingerprint verification:
    # the restore deliberately fell back to a cold start rather than
    # trusting corrupted durable state.
    checkpoint_corrupted: bool = False

    @property
    def cold_start(self) -> bool:
        return self.checkpoint_taken_at is None

    @property
    def overgranted(self) -> bool:
        """True if the restored sOA considers itself entitled to more
        budget than the checkpointed assignment allows — the invariant
        `repro recovery` fails the run on."""
        if self.checkpoint_budget_watts is None \
                or self.restored_budget_watts is None:
            return False
        return (self.restored_budget_watts
                > self.checkpoint_budget_watts + 1e-9)


_AnyCheckpoint = Union[SoaCheckpoint, GoaCheckpoint]

#: Decides per save event whether the written bytes rot on the medium.
#: Installed by the fault injector; the key is the server id (or
#: ``goa:<rack_id>`` for gOA checkpoints) and the float is ``taken_at``.
CorruptionHook = Callable[[str, float], bool]


@dataclass(frozen=True)
class CheckpointLoad:
    """Outcome of a verified load: at most one of the two is truthy."""

    checkpoint: Optional[_AnyCheckpoint]
    corrupted: bool = False


@dataclass
class _Stored:
    """One durable slot: the record plus its save-time fingerprint.

    ``corrupt_body`` is None for a healthy save.  When a corruption
    fault hit the write, it holds the canonical bytes *as the medium
    kept them* (one flipped byte) — verification then recomputes the
    hash over those bytes and the mismatch is detected at load time,
    exactly like a real fingerprint-checked store."""

    value: _AnyCheckpoint
    fingerprint: str
    corrupt_body: Optional[bytes] = None


def _flip_byte(body: bytes, key: str, taken_at: float) -> bytes:
    """Deterministic single-byte corruption (no RNG: the *whether* is the
    injector's seeded coin, the *where* is a pure function of the event)."""
    index = zlib.crc32(f"{key}@{taken_at}".encode("utf-8")) % len(body)
    flipped = bytearray(body)
    flipped[index] ^= 0xFF
    return bytes(flipped)


@dataclass
class DurableStore:
    """The in-sim durable storage service (one per platform).

    Keeps the latest checkpoint per server (and per rack gOA) —
    SmartOClock's checkpoints fully supersede each other, so retaining
    history would only model storage we never read.

    Every ``save`` records the checkpoint's SHA-256 fingerprint; every
    load re-verifies it.  A record whose bytes rotted (the
    ``CheckpointCorruptionFault`` path) fails verification and loads as
    *corrupted* — callers fall back to a cold start instead of trusting
    durable state the control plane never wrote.
    """

    checkpoints_saved: int = 0
    checkpoints_loaded: int = 0       # verified successful loads only
    checkpoints_corrupted: int = 0    # saves whose bytes rotted
    corruption_detected: int = 0      # loads that failed verification
    corruption_hook: Optional[CorruptionHook] = None
    _latest: dict[str, _Stored] = field(default_factory=dict)

    # -- generic verified slots ---------------------------------------

    def _store(self, key: str, value: _AnyCheckpoint,
               taken_at: float) -> None:
        self.checkpoints_saved += 1
        body = value.canonical_body()
        stored = _Stored(value=value, fingerprint=_sha256(body))
        if self.corruption_hook is not None \
                and self.corruption_hook(key, taken_at):
            stored.corrupt_body = _flip_byte(body, key, taken_at)
            self.checkpoints_corrupted += 1
        self._latest[key] = stored

    def _fetch(self, key: str) -> CheckpointLoad:
        stored = self._latest.get(key)
        if stored is None:
            return CheckpointLoad(checkpoint=None)
        if stored.corrupt_body is not None:
            body = stored.corrupt_body
        else:
            body = stored.value.canonical_body()
        if _sha256(body) != stored.fingerprint:
            self.corruption_detected += 1
            return CheckpointLoad(checkpoint=None, corrupted=True)
        self.checkpoints_loaded += 1
        return CheckpointLoad(checkpoint=stored.value)

    # -- sOA checkpoints ------------------------------------------------

    def save(self, checkpoint: SoaCheckpoint) -> None:
        self._store(checkpoint.server_id, checkpoint, checkpoint.taken_at)

    def load_verified(self, server_id: str) -> CheckpointLoad:
        """Load + fingerprint-verify; distinguishes missing from rotten."""
        return self._fetch(server_id)

    def load(self, server_id: str) -> Optional[SoaCheckpoint]:
        """Verified load; a corrupted record loads as None (the caller
        cold-starts).  Use :meth:`load_verified` to tell the two apart."""
        result = self._fetch(server_id)
        checkpoint = result.checkpoint
        assert checkpoint is None or isinstance(checkpoint, SoaCheckpoint)
        return checkpoint

    def has_checkpoint(self, server_id: str) -> bool:
        """A record exists for ``server_id`` (it may still be rotten)."""
        return server_id in self._latest

    # -- gOA checkpoints --------------------------------------------------

    @staticmethod
    def goa_key(rack_id: str) -> str:
        return f"goa:{rack_id}"

    def save_goa(self, checkpoint: GoaCheckpoint) -> None:
        self._store(self.goa_key(checkpoint.rack_id), checkpoint,
                    checkpoint.taken_at)

    def load_goa(self, rack_id: str) -> CheckpointLoad:
        return self._fetch(self.goa_key(rack_id))
