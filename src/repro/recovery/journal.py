"""The write-ahead journal: intent before mutation, always.

Crash consistency in one rule: a subsystem about to mutate durable state
(the RPM database, the Rocks hosts table, a mirror's package store) first
appends an *intent* record to a :class:`Journal`, applies the mutation,
then marks the record *applied*; when every operation of a logical
transaction has landed, the transaction is *committed*.  A crash at any
instant therefore leaves one of three recoverable shapes:

* no record — the mutation never started; nothing to do;
* an intent that was never applied — the mutation may or may not have
  half-happened; the owner's undo makes it definitely-not-happened;
* applied-but-uncommitted records — the transaction is incomplete.

Both shapes are resolved by the one loop in :meth:`Journal.roll_back`:
every operation not yet undone goes through the owning layer's undo in
**strict reverse order**, and the transaction closes rolled-back.

There are no phantom packages and no half-registered nodes afterwards —
the paper's one-part-time-admin clusters depend on exactly this property
surviving a frontend power cut.

The journal is deliberately dependency-free (``errors`` only): the RPM
transaction engine imports it from far below the simulation stack.  Give
it a ``path`` and every record is *appended* to a JSONL file as it is
written — the write-ahead part — so a separate process can
:meth:`Journal.load` the log after a crash and drive recovery.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Mapping

from ..errors import JournalError

__all__ = [
    "OpState",
    "TxnState",
    "JournalOp",
    "JournalTxn",
    "Journal",
    "recover_incomplete",
]


class TxnState(str, Enum):
    """Lifecycle of one journaled transaction."""

    OPEN = "open"                # in progress (or interrupted by a crash)
    COMMITTED = "committed"      # every operation landed
    ABORTED = "aborted"          # cleanly abandoned by its owner pre-crash
    ROLLED_BACK = "rolled-back"  # every operation was undone


class OpState(str, Enum):
    """Lifecycle of one journaled operation."""

    INTENT = "intent"    # recorded, mutation not yet confirmed
    APPLIED = "applied"  # mutation confirmed done
    UNDONE = "undone"    # recovery reversed it


@dataclass
class JournalOp:
    """One intended (then applied, then possibly undone) mutation.

    ``payload`` is the durable JSON record; ``obj`` is an optional
    in-process handle (e.g. the erased :class:`~repro.rpm.package.Package`
    an undo must re-install) that never leaves the process — after a real
    crash, undo handlers must reconstruct what they need from ``payload``.
    """

    seq: int
    op: str
    payload: dict[str, Any]
    state: OpState = OpState.INTENT
    obj: Any = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "op": self.op,
            "payload": dict(self.payload),
            "state": self.state.value,
        }


@dataclass
class JournalTxn:
    """One logical transaction: an ordered run of journaled operations."""

    txn_id: int
    kind: str
    meta: dict[str, Any] = field(default_factory=dict)
    state: TxnState = TxnState.OPEN
    ops: list[JournalOp] = field(default_factory=list)

    @property
    def open(self) -> bool:
        return self.state is TxnState.OPEN

    def applied_ops(self) -> list[JournalOp]:
        """Operations confirmed applied, in application order."""
        return [op for op in self.ops if op.state is OpState.APPLIED]

    def to_dict(self) -> dict[str, Any]:
        return {
            "txn_id": self.txn_id,
            "kind": self.kind,
            "meta": dict(self.meta),
            "state": self.state.value,
            "ops": [op.to_dict() for op in self.ops],
        }


class Journal:
    """An append-only intent log shared by any number of subsystems.

    In-memory always; give ``path`` to also append each record to a JSONL
    write-ahead file the moment it is written (before the caller mutates
    anything — the ordering crash consistency rests on).
    """

    def __init__(self, *, path=None) -> None:
        self.path = pathlib.Path(path) if path is not None else None
        self._txns: dict[int, JournalTxn] = {}
        self._next_txn = 1
        self._next_op = 1
        if self.path is not None and not self.path.exists():
            self.path.write_text("")

    # -- the write-ahead file --------------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        if self.path is None:
            return
        with self.path.open("a") as fh:
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")

    @classmethod
    def load(cls, path) -> "Journal":
        """Rebuild a journal by replaying its write-ahead file.

        This is the post-crash entry point: the reconstructed journal's
        open transactions are exactly the work in flight when the process
        died.  (The rebuilt journal does not re-append while loading.)
        """
        journal = cls()
        text = pathlib.Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise JournalError(
                    f"{path}: line {lineno} is not JSON ({exc.msg})"
                ) from exc
            journal._replay_record(record, f"{path}:{lineno}")
        journal.path = pathlib.Path(path)
        return journal

    def _replay_record(self, record: Mapping[str, Any], where: str) -> None:
        event = record.get("event")
        if event == "begin":
            txn = JournalTxn(
                txn_id=int(record["txn_id"]),
                kind=str(record["kind"]),
                meta=dict(record.get("meta", {})),
            )
            self._txns[txn.txn_id] = txn
            self._next_txn = max(self._next_txn, txn.txn_id + 1)
        elif event == "intent":
            txn = self._require_txn(int(record["txn_id"]))
            op = JournalOp(
                seq=int(record["seq"]),
                op=str(record["op"]),
                payload=dict(record.get("payload", {})),
            )
            txn.ops.append(op)
            self._next_op = max(self._next_op, op.seq + 1)
        elif event in ("applied", "undone"):
            txn = self._require_txn(int(record["txn_id"]))
            seq = int(record["seq"])
            for op in txn.ops:
                if op.seq == seq:
                    op.state = OpState(event)
                    break
            else:
                raise JournalError(f"{where}: {event} for unknown op seq {seq}")
        elif event in ("commit", "abort", "rolled-back"):
            txn = self._require_txn(int(record["txn_id"]))
            txn.state = {
                "commit": TxnState.COMMITTED,
                "abort": TxnState.ABORTED,
                "rolled-back": TxnState.ROLLED_BACK,
            }[event]
        else:
            raise JournalError(f"{where}: unknown journal event {event!r}")

    def _require_txn(self, txn_id: int) -> JournalTxn:
        try:
            return self._txns[txn_id]
        except KeyError:
            raise JournalError(f"unknown transaction id {txn_id}") from None

    # -- writing ----------------------------------------------------------------

    def begin(self, kind: str, **meta: Any) -> JournalTxn:
        """Open a transaction; returns its handle."""
        txn = JournalTxn(txn_id=self._next_txn, kind=kind, meta=dict(meta))
        self._next_txn += 1
        self._txns[txn.txn_id] = txn
        self._append(
            {"event": "begin", "txn_id": txn.txn_id, "kind": kind, "meta": txn.meta}
        )
        return txn

    def intent(
        self, txn: JournalTxn, op: str, *, obj: Any = None, **payload: Any
    ) -> JournalOp:
        """Record the intent to perform ``op`` — call BEFORE mutating."""
        if not txn.open:
            raise JournalError(
                f"transaction {txn.txn_id} is {txn.state.value}; cannot add ops"
            )
        record = JournalOp(seq=self._next_op, op=op, payload=dict(payload), obj=obj)
        self._next_op += 1
        txn.ops.append(record)
        self._append(
            {
                "event": "intent",
                "txn_id": txn.txn_id,
                "seq": record.seq,
                "op": op,
                "payload": record.payload,
            }
        )
        return record

    def applied(self, txn: JournalTxn, op: JournalOp) -> None:
        """Confirm an intended mutation landed — call AFTER mutating."""
        if op.state is not OpState.INTENT:
            raise JournalError(f"op {op.seq} is {op.state.value}; cannot apply")
        op.state = OpState.APPLIED
        self._append({"event": "applied", "txn_id": txn.txn_id, "seq": op.seq})

    def undone(self, txn: JournalTxn, op: JournalOp) -> None:
        """Record that recovery made an operation definitely-not-in-effect.

        Valid from APPLIED (the normal rollback path) *and* from INTENT —
        a crash between intent and applied leaves the mutation in an
        unknown state, and recovery's job is to force it to not-happened.
        """
        if op.state is OpState.UNDONE:
            raise JournalError(f"op {op.seq} is already undone")
        op.state = OpState.UNDONE
        self._append({"event": "undone", "txn_id": txn.txn_id, "seq": op.seq})

    def commit(self, txn: JournalTxn) -> None:
        """Close a transaction as fully applied."""
        if not txn.open:
            raise JournalError(
                f"transaction {txn.txn_id} is {txn.state.value}; cannot commit"
            )
        txn.state = TxnState.COMMITTED
        self._append({"event": "commit", "txn_id": txn.txn_id})

    def roll_back(self, txn: JournalTxn, undo: Callable[[JournalOp], None]) -> None:
        """Undo an open transaction: THE rollback loop.

        Every operation not yet UNDONE goes through ``undo`` newest-first
        (strict reverse of application order — the only order that unwinds
        dependent mutations safely), is marked undone, and the transaction
        closes rolled-back.  APPLIED and INTENT operations alike: a
        primitive that raised, or a process that died, between intent and
        applied may have half-landed, so ``undo`` must check the state it
        finds rather than assume the mutation happened.  An ``undo`` that
        raises leaves the transaction open, never falsely rolled back.
        """
        if not txn.open:
            raise JournalError(
                f"transaction {txn.txn_id} is {txn.state.value}; "
                f"cannot roll back"
            )
        for op in reversed(txn.ops):
            if op.state is not OpState.UNDONE:
                undo(op)
                self.undone(txn, op)
        txn.state = TxnState.ROLLED_BACK
        self._append({"event": "rolled-back", "txn_id": txn.txn_id})

    def abort(self, txn: JournalTxn, *, note: str = "") -> None:
        """Close a transaction as cleanly abandoned (its owner undid or
        deliberately kept any partial effects — e.g. a resumable mirror
        sync keeps fetched packages on purpose)."""
        if not txn.open:
            raise JournalError(
                f"transaction {txn.txn_id} is {txn.state.value}; cannot abort"
            )
        txn.state = TxnState.ABORTED
        if note:
            txn.meta["abort_note"] = note
        self._append({"event": "abort", "txn_id": txn.txn_id})

    # -- reading ---------------------------------------------------------------

    def transactions(self, kind: str | None = None) -> list[JournalTxn]:
        """All transactions (optionally filtered by kind), oldest first."""
        out = [self._txns[i] for i in sorted(self._txns)]
        if kind is not None:
            out = [t for t in out if t.kind == kind]
        return out

    def open_txns(self, kind: str | None = None) -> list[JournalTxn]:
        """Transactions a crash (or a bug) left in flight, oldest first."""
        return [t for t in self.transactions(kind) if t.open]

    def __len__(self) -> int:
        return len(self._txns)

    def state_dict(self) -> dict[str, Any]:
        """JSON-friendly snapshot of the whole journal (checkpoint use)."""
        return {"txns": [t.to_dict() for t in self.transactions()]}


def recover_incomplete(
    journal: Journal, undo_by_kind: Mapping[str, Callable[[JournalOp], None]]
) -> list[JournalTxn]:
    """Roll back every open transaction through its kind's undo.

    The multi-kind dispatcher over :meth:`Journal.roll_back`.  An open
    transaction whose kind has no undo raises
    :class:`~repro.errors.JournalError` — silently leaving phantom state
    behind is the failure mode this module exists to kill.  Returns the
    transactions that were rolled back.
    """
    resolved = journal.open_txns()
    for txn in resolved:
        if txn.kind not in undo_by_kind:
            raise JournalError(
                f"open transaction {txn.txn_id} ({txn.kind}) has no "
                f"recovery handler"
            )
        journal.roll_back(txn, undo_by_kind[txn.kind])
    return resolved
