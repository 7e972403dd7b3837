"""NodeSet / RangeSet algebra: fleet addressing that is O(ranges), not O(nodes).

The ClusterShell idiom (SNIPPETS.md): a 10,000-node fleet is written
``compute-0-[0-9999]``, not ten thousand strings.  A :class:`RangeSet` is a
sorted list of disjoint inclusive integer intervals with an optional
zero-padding width; a :class:`NodeSet` maps ``(prefix, suffix)`` name
patterns to RangeSets (plus plain unnumbered names) and supports union
``|`` and difference ``-`` by merging interval lists, never by expanding
nodes.  ``split()`` chunks a NodeSet into bounded waves for the installer;
named groups (``@compute``) resolve through an explicit mapping.

Everything is deterministic: folding sorts patterns lexicographically and
ranges numerically, so ``str(nodeset)`` is a stable fleet address usable in
trace events (and, unlike MAC lists, independent of hardware serials).
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

from ..errors import FleetError

__all__ = ["RangeSet", "NodeSet", "fold_names"]

#: a node name's trailing integer (the rank a pattern folds over)
_TRAILING_INT = re.compile(r"^(.*?)(\d+)$")
#: one bracket expression inside a nodeset string: prefix[ranges]suffix
_BRACKET = re.compile(r"^(.*?)\[([-\d,]+)\](.*)$")


class RangeSet:
    """A set of non-negative integers stored as disjoint inclusive intervals.

    ``padding`` is the zero-fill width names were written with (``03`` =>
    padding 3); 0 means no padding.  Mixing two different non-zero paddings
    in one operation is an addressing error and raises :class:`FleetError`.
    """

    __slots__ = ("_ivals", "padding")

    def __init__(
        self,
        intervals: Iterable[tuple[int, int]] = (),
        *,
        padding: int = 0,
    ) -> None:
        self.padding = padding
        self._ivals: list[tuple[int, int]] = _normalize(intervals)

    # -- construction --------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "RangeSet":
        """Parse ``"0-99,200,300-310"`` (detects zero-padding like ``001``)."""
        ivals: list[tuple[int, int]] = []
        padding = 0
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            lo_s, dash, hi_s = part.partition("-")
            if not lo_s.isdigit() or (dash and not hi_s.isdigit()):
                raise FleetError(f"bad range {part!r} in {text!r}")
            lo = _rank(lo_s, text)
            hi = _rank(hi_s, text) if dash else lo
            if hi < lo:
                raise FleetError(f"inverted range {part!r} in {text!r}")
            if len(lo_s) > 1 and lo_s[0] == "0":
                padding = max(padding, len(lo_s))
            ivals.append((lo, hi))
        return cls(ivals, padding=padding)

    # -- queries -------------------------------------------------------------

    def intervals(self) -> list[tuple[int, int]]:
        """The disjoint inclusive (start, stop) intervals, ascending."""
        return list(self._ivals)

    def __len__(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self._ivals)

    def __bool__(self) -> bool:
        return bool(self._ivals)

    def __iter__(self) -> Iterator[int]:
        for lo, hi in self._ivals:
            yield from range(lo, hi + 1)

    def __contains__(self, value: int) -> bool:
        for lo, hi in self._ivals:
            if lo <= value <= hi:
                return True
            if value < lo:
                return False
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeSet):
            return NotImplemented
        return self._ivals == other._ivals and self.padding == other.padding

    def __hash__(self) -> int:
        return hash((tuple(self._ivals), self.padding))

    def format_value(self, value: int) -> str:
        """One member rendered with this set's zero-padding."""
        return f"{value:0{self.padding}d}" if self.padding else str(value)

    def fold(self) -> str:
        """The canonical compact form, e.g. ``"0-99,200"``."""
        parts = []
        for lo, hi in self._ivals:
            if lo == hi:
                parts.append(self.format_value(lo))
            else:
                parts.append(f"{self.format_value(lo)}-{self.format_value(hi)}")
        return ",".join(parts)

    def __str__(self) -> str:
        return self.fold()

    def __repr__(self) -> str:
        return f"RangeSet({self.fold()!r})"

    # -- algebra (interval merges; never expands members) ---------------------

    def _merged_padding(self, other: "RangeSet") -> int:
        return _merged_width(
            self.padding, self._ivals[0][0] if self._ivals else None,
            other.padding, other._ivals[0][0] if other._ivals else None,
        )

    def union(self, other: "RangeSet") -> "RangeSet":
        return RangeSet(
            self._ivals + other._ivals, padding=self._merged_padding(other)
        )

    def difference(self, other: "RangeSet") -> "RangeSet":
        out: list[tuple[int, int]] = []
        j = 0
        b = other._ivals
        for lo, hi in self._ivals:
            cur = lo
            while j < len(b) and b[j][1] < cur:
                j += 1
            k = j
            while k < len(b) and b[k][0] <= hi:
                blo, bhi = b[k]
                if blo > cur:
                    out.append((cur, blo - 1))
                cur = max(cur, bhi + 1)
                if cur > hi:
                    break
                k += 1
            if cur <= hi:
                out.append((cur, hi))
        return RangeSet(out, padding=self._merged_padding(other))

    __or__ = union
    __sub__ = difference


def _rank(digits: str, text: str) -> int:
    """``int(digits)``, whose bare ValueError (past CPython's int-digit
    limit, or on an ``isdigit`` character like ``"²"``) becomes FleetError."""
    try:
        return int(digits)
    except ValueError:
        raise FleetError(f"unusable node index in {text[:60]!r}") from None


def _split_rank(m: re.Match[str], name: str) -> tuple[str, int, int]:
    """A trailing-integer match of ``name`` as (prefix, padding, rank)."""
    prefix, digits = m.groups()
    padding = len(digits) if len(digits) > 1 and digits[0] == "0" else 0
    return prefix, padding, _rank(digits, name)


def _merged_width(
    padding: int, low: int | None, other_padding: int, other_low: int | None
) -> int:
    """The zero-padding of a union of two rank sets, given each one's
    padding and smallest member (None when empty).

    Two different widths are an addressing error, and so is an unpadded
    member shorter than the other set's width: ``n1`` and ``n01`` are two
    hosts that one padded range cannot both name.
    """
    if padding and other_padding and padding != other_padding:
        raise FleetError(f"mixed zero-padding widths {padding} and {other_padding}")
    width = max(padding, other_padding)
    if width and not (padding and other_padding):  # one side is unpadded
        shortest = other_low if padding else low
        if shortest is not None and len(str(shortest)) < width:
            raise FleetError(
                f"unpadded index {shortest} is shorter than zero-padding "
                f"width {width}"
            )
    return width


def _normalize(intervals: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sort and coalesce overlapping/adjacent intervals."""
    ivals = sorted(intervals)
    out: list[tuple[int, int]] = []
    for lo, hi in ivals:
        if lo < 0 or hi < lo:
            raise FleetError(f"invalid interval ({lo}, {hi})")
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


class NodeSet:
    """A set of node names addressed by patterns, with union and difference.

    Internally ``{(prefix, suffix): RangeSet}`` plus a set of unnumbered
    scalar names.  ``compute-0-15`` lives under pattern
    ``("compute-0-", "")`` with value 15 — so ranks fold per rack and the
    whole Kansas fleet is two patterns, regardless of node count.
    """

    __slots__ = ("_patterns", "_scalars")

    def __init__(self) -> None:
        self._patterns: dict[tuple[str, str], RangeSet] = {}
        self._scalars: set[str] = set()

    # -- construction --------------------------------------------------------

    @classmethod
    def parse(
        cls,
        text: str,
        *,
        groups: Mapping[str, "NodeSet | str"] | None = None,
    ) -> "NodeSet":
        """Parse ``"compute-0-[0-99],head"``; ``@name`` resolves via ``groups``."""
        ns = cls()
        for part in _split_top_level(text):
            if not part:
                continue
            if part.startswith("@"):
                name = part[1:]
                if groups is None or name not in groups:
                    raise FleetError(f"unknown node group @{name}")
                member = groups[name]
                resolved = (
                    member
                    if isinstance(member, NodeSet)
                    else cls.parse(member, groups=groups)
                )
                ns._update(resolved)
                continue
            m = _BRACKET.match(part)
            if m is not None:
                prefix, ranges, suffix = m.groups()
                ns._add_range((prefix, suffix), RangeSet.parse(ranges))
                continue
            ns.add(part)
        return ns

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "NodeSet":
        """Fold a list of node names into patterns, in one pass.

        Ranks are grouped per pattern and each pattern's RangeSet is built
        and normalised once; a padding conflict raises at the same name,
        with the same message, as adding the names one by one would.
        """
        ns = cls()
        folds: dict[str, list] = {}  # prefix -> [padding, lowest rank, ranks]
        for name in names:
            m = _TRAILING_INT.match(name)
            if m is None:
                ns._scalars.add(name)
                continue
            prefix, padding, rank = _split_rank(m, name)
            fold = folds.get(prefix)
            if fold is None:
                folds[prefix] = [padding, rank, [rank]]
                continue
            if padding != fold[0]:
                fold[0] = _merged_width(fold[0], fold[1], padding, rank)
            if rank < fold[1]:
                fold[1] = rank
            fold[2].append(rank)
        for prefix, (padding, _low, ranks) in folds.items():
            ns._patterns[(prefix, "")] = RangeSet(
                [(rank, rank) for rank in ranks], padding=padding
            )
        return ns

    def add(self, name: str) -> None:
        """Add a single node name (folds a trailing integer if present)."""
        m = _TRAILING_INT.match(name)
        if m is None:
            self._scalars.add(name)
            return
        prefix, padding, rank = _split_rank(m, name)
        self._add_range(
            (prefix, ""), RangeSet([(rank, rank)], padding=padding)
        )

    def _add_range(self, key: tuple[str, str], rset: RangeSet) -> None:
        existing = self._patterns.get(key)
        self._patterns[key] = rset if existing is None else existing | rset

    def _update(self, other: "NodeSet") -> None:
        for key, rset in other._patterns.items():
            self._add_range(key, rset)
        self._scalars |= other._scalars

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(r) for r in self._patterns.values()) + len(self._scalars)

    def __bool__(self) -> bool:
        return bool(self._patterns) or bool(self._scalars)

    def __contains__(self, name: str) -> bool:
        if name in self._scalars:
            return True
        for (prefix, suffix), rset in self._patterns.items():
            if not name.startswith(prefix):
                continue
            middle = name[len(prefix):len(name) - len(suffix) or None]
            if suffix and not name.endswith(suffix):
                continue
            if middle.isdigit() and int(middle) in rset:
                return True
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeSet):
            return NotImplemented
        mine = {k: r for k, r in self._patterns.items() if r}
        theirs = {k: r for k, r in other._patterns.items() if r}
        return mine == theirs and self._scalars == other._scalars

    def __hash__(self) -> int:
        return hash(self.fold())

    def __iter__(self) -> Iterator[str]:
        """Expanded names: patterns in sorted key order, values ascending,
        then scalars sorted — a stable total order."""
        for (prefix, suffix), rset in sorted(self._patterns.items()):
            for value in rset:
                yield f"{prefix}{rset.format_value(value)}{suffix}"
        yield from sorted(self._scalars)

    def fold(self) -> str:
        """The canonical compact address, e.g. ``"compute-0-[0-9999],head"``."""
        parts = []
        for (prefix, suffix), rset in sorted(self._patterns.items()):
            if not rset:
                continue
            ivals = rset.intervals()
            if not suffix and len(ivals) == 1 and ivals[0][0] == ivals[0][1]:
                parts.append(f"{prefix}{rset.format_value(ivals[0][0])}{suffix}")
            else:
                parts.append(f"{prefix}[{rset.fold()}]{suffix}")
        parts.extend(sorted(self._scalars))
        return ",".join(parts)

    def __str__(self) -> str:
        return self.fold()

    def __repr__(self) -> str:
        return f"NodeSet({self.fold()!r})"

    # -- algebra -------------------------------------------------------------

    def _combine(self, other: "NodeSet", op: str) -> "NodeSet":
        out = NodeSet()
        keys = set(self._patterns) | set(other._patterns)
        empty = RangeSet()
        for key in sorted(keys):
            a = self._patterns.get(key, empty)
            b = other._patterns.get(key, empty)
            merged = getattr(a, op)(b)
            if merged:
                out._patterns[key] = merged
        if op == "union":
            out._scalars = self._scalars | other._scalars
        else:
            out._scalars = self._scalars - other._scalars
        return out

    def union(self, other: "NodeSet") -> "NodeSet":
        return self._combine(other, "union")

    def difference(self, other: "NodeSet") -> "NodeSet":
        return self._combine(other, "difference")

    __or__ = union
    __sub__ = difference

    def split(self, size: int) -> Iterator["NodeSet"]:
        """Chunk into NodeSets of at most ``size`` members, in iteration
        order — the installer's bounded-concurrency waves."""
        if size <= 0:
            raise FleetError(f"wave size must be positive, got {size}")
        batch = NodeSet()
        count = 0
        for name in self:
            batch.add(name)
            count += 1
            if count == size:
                yield batch
                batch = NodeSet()
                count = 0
        if count:
            yield batch


def _split_top_level(text: str) -> list[str]:
    """Split a nodeset expression on commas outside brackets."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            if depth == 0:
                raise FleetError(f"unbalanced brackets in {text!r}")
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
            continue
        current.append(ch)
    if depth:
        raise FleetError(f"unbalanced brackets in {text!r}")
    parts.append("".join(current).strip())
    return parts


def fold_names(names: Iterable[str]) -> str:
    """Fold a list of node names into the canonical compact address."""
    return NodeSet.from_names(names).fold()
