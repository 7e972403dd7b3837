"""RPM version comparison (``rpmvercmp``) and EVR handling, from scratch.

XNIT is "based on the Yum repository for installation or updates of RPMs"
(Section 1); everything yum decides — is this an update? which candidate is
newest? — reduces to comparing ``epoch:version-release`` (EVR) triples with
RPM's segment algorithm:

1. walk both strings, skipping separator characters (anything that is not
   alphanumeric or ``~``);
2. ``~`` (tilde) sorts before everything, including end-of-string — this is
   how pre-releases like ``1.0~rc1`` sort before ``1.0``;
3. take the next maximal run of digits *or* letters from each side; a
   numeric segment always beats an alphabetic one;
4. numeric segments compare as integers (leading zeros stripped), alphabetic
   segments compare as C strings;
5. if all compared segments tie, the string with leftover content wins.

Epoch dominates version, version dominates release.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cmp_to_key

from ..errors import RpmError

__all__ = ["rpmvercmp", "EVR", "EVR_ORDER", "parse_evr", "compare_evr"]


def _is_sep(ch: str) -> bool:
    return not (ch.isalnum() or ch == "~")


def rpmvercmp(a: str, b: str) -> int:
    """Compare two version strings with RPM's algorithm.

    Returns -1, 0 or 1 as ``a`` is older than, equal to, or newer than ``b``.
    """
    if a == b:
        return 0
    i, j = 0, 0
    la, lb = len(a), len(b)
    while i < la or j < lb:
        while i < la and _is_sep(a[i]):
            i += 1
        while j < lb and _is_sep(b[j]):
            j += 1
        # Tilde: sorts lower than anything, including running out of string.
        a_tilde = i < la and a[i] == "~"
        b_tilde = j < lb and b[j] == "~"
        if a_tilde or b_tilde:
            if not b_tilde:
                return -1
            if not a_tilde:
                return 1
            i += 1
            j += 1
            continue
        if i >= la or j >= lb:
            break
        # Segment type is decided by the left string (RPM convention).
        if a[i].isdigit():
            x = i
            while x < la and a[x].isdigit():
                x += 1
            y = j
            while y < lb and b[y].isdigit():
                y += 1
            numeric = True
        else:
            x = i
            while x < la and a[x].isalpha():
                x += 1
            y = j
            while y < lb and b[y].isalpha():
                y += 1
            numeric = False
        seg_a = a[i:x]
        seg_b = b[j:y]
        if not seg_b:
            # Different segment types: numeric beats alphabetic.
            return 1 if numeric else -1
        if numeric:
            seg_a = seg_a.lstrip("0") or "0"
            seg_b = seg_b.lstrip("0") or "0"
            if len(seg_a) != len(seg_b):
                return 1 if len(seg_a) > len(seg_b) else -1
        if seg_a != seg_b:
            return 1 if seg_a > seg_b else -1
        i, j = x, y
    # All compared segments equal; leftover content wins.
    if i >= la and j >= lb:
        return 0
    return 1 if i < la else -1


_EVR_RE = re.compile(
    r"^(?:(?P<epoch>\d+):)?(?P<version>[^:-]+)(?:-(?P<release>[^:-]+))?$"
)


@dataclass(frozen=True)
class EVR:
    """An epoch:version-release triple with RPM ordering.

    The comparison operators are RPM's dependency-matching rule, in which
    a missing release equals every release of its version, so they do not
    define a total order.  Sorts use :data:`EVR_ORDER`, which does.
    """

    epoch: int
    version: str
    release: str

    def __str__(self) -> str:
        base = self.version + (f"-{self.release}" if self.release else "")
        return f"{self.epoch}:{base}" if self.epoch else base

    def _cmp(self, other: "EVR") -> int:
        if self.epoch != other.epoch:
            return 1 if self.epoch > other.epoch else -1
        if self.version != other.version:
            c = rpmvercmp(self.version, other.version)
            if c != 0:
                return c
        # A missing release compares equal to any release (RPM's behaviour
        # when matching versioned dependencies like ``>= 1.2``).
        if not self.release or not other.release or self.release == other.release:
            return 0
        return rpmvercmp(self.release, other.release)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EVR):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other: "EVR") -> bool:
        if not isinstance(other, EVR):
            return NotImplemented
        return self._cmp(other) < 0

    def __le__(self, other: "EVR") -> bool:
        if not isinstance(other, EVR):
            return NotImplemented
        return self._cmp(other) <= 0

    def __gt__(self, other: "EVR") -> bool:
        if not isinstance(other, EVR):
            return NotImplemented
        return self._cmp(other) > 0

    def __ge__(self, other: "EVR") -> bool:
        if not isinstance(other, EVR):
            return NotImplemented
        return self._cmp(other) >= 0

    def _order(self, other: "EVR") -> int:
        """:meth:`_cmp` made total for sorting: a missing release sorts
        before every release of its version."""
        c = self._cmp(other)
        if c == 0 and bool(self.release) != bool(other.release):
            return 1 if self.release else -1
        return c

    def __hash__(self) -> int:
        return hash((self.epoch, self.version, self.release))


#: sort key over EVRs that orders them totally (:meth:`EVR._order`), so a
#: sorted list does not depend on the order its members arrived in
EVR_ORDER = cmp_to_key(EVR._order)


def parse_evr(text: str) -> EVR:
    """Parse ``[epoch:]version[-release]`` into an :class:`EVR`.

    Raises :class:`~repro.errors.RpmError` on malformed input (empty string,
    negative epoch, embedded whitespace).
    """
    if not text or text != text.strip() or " " in text:
        raise RpmError(f"malformed EVR string: {text!r}")
    m = _EVR_RE.match(text)
    if m is None:
        raise RpmError(f"malformed EVR string: {text!r}")
    return EVR(
        epoch=int(m.group("epoch") or 0),
        version=m.group("version"),
        release=m.group("release") or "",
    )


def compare_evr(a: str, b: str) -> int:
    """Convenience: parse and compare two EVR strings, returning -1/0/1."""
    ea, eb = parse_evr(a), parse_evr(b)
    return ea._cmp(eb)
