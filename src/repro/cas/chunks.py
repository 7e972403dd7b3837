"""Deterministic content chunking of RPM payloads.

The content-addressed layer never moves whole NEVRAs — it moves *chunks*,
fixed-size slices of a package payload named by the sha256 of their
content.  The simulation has no real payload bytes, so chunk content is
*modelled*: each slice of a package is assigned a deterministic content
key, and its digest is the sha256 of that key.  Two packages whose slices
map to the same content key therefore share the chunk — which is exactly
the property the chunk store deduplicates on.

The sharing model mirrors how adjacent RPM versions really behave: most
of a package's payload survives a version bump (docs, data files, stable
code), while a fraction is version-specific (recompiled objects, changed
headers).  :func:`chunk_package` marks each slice *version-specific* with
probability ``delta_fraction`` — decided by hashing ``name:evr:index``,
so the decision is a pure function of the package identity, never of RNG
state — and keys the rest by ``name:index`` alone.  Adjacent versions
then share a slice iff neither version marks it, ≈ ``(1-f)²`` of the
payload, so a v1→v2 update moves only the delta chunks.

Everything here is a pure function of the package identity; two processes
(or two same-seed runs) always produce byte-identical manifests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..errors import CasError
from ..rpm.package import Package

__all__ = ["CHUNK_SIZE", "Chunk", "PackageManifest", "ChunkingPolicy", "chunk_package"]

#: Default chunk size: 256 KiB, the CVMFS default chunk target.
CHUNK_SIZE = 256 * 1024


@dataclass(frozen=True)
class Chunk:
    """One content-addressed slice: sha256 digest + size in bytes."""

    digest: str
    size: int

    @property
    def short(self) -> str:
        """The abbreviated digest used in labels and messages."""
        return self.digest[:12]


@dataclass(frozen=True)
class PackageManifest:
    """A package's payload as an ordered run of chunks.

    The manifest is what a catalog maps each NEVRA to; the chunk list is
    what a lazy client actually fetches.  ``sum(c.size for c in chunks)``
    always equals ``size_bytes``.
    """

    nevra: str
    size_bytes: int
    chunks: tuple[Chunk, ...]


class ChunkRun(tuple):
    """Distinct chunks with their digest set and byte total taken once, so
    a store holding the whole run answers with one subset test."""

    def __new__(cls, chunks):
        run = super().__new__(cls, chunks)
        run.digests = frozenset(c.digest for c in run)
        run.nbytes = sum(c.size for c in run)
        return run


@dataclass(frozen=True)
class ChunkingPolicy:
    """The chunking parameters of one hierarchy; its stratum-0 holds them.
    Every tier below looks manifests up in the catalog instead, so there is
    exactly one source of truth and digests cannot stop matching."""

    chunk_size: int = CHUNK_SIZE
    #: fraction of a package's slices that are version-specific
    delta_fraction: float = 0.125

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise CasError(f"chunk size must be positive, got {self.chunk_size}")
        if not 0.0 <= self.delta_fraction <= 1.0:
            raise CasError(
                f"delta fraction must be in [0, 1], got {self.delta_fraction}"
            )

    def manifest(self, pkg: Package) -> PackageManifest:
        return chunk_package(
            pkg, chunk_size=self.chunk_size, delta_fraction=self.delta_fraction
        )


def _digest(content_key: str, size: int) -> str:
    # Size is part of the content identity: a truncated tail slice must
    # never collide with the full-size slice of a bigger build.
    return hashlib.sha256(f"{content_key}|{size}".encode()).hexdigest()


def _is_version_specific(name: str, evr: str, index: int, fraction: float) -> bool:
    """Deterministically mark ``fraction`` of slices as version-specific."""
    if fraction >= 1.0:
        return True
    if fraction <= 0.0:
        return False
    draw = int(
        hashlib.sha256(f"{name}:{evr}:{index}".encode()).hexdigest()[:8], 16
    )
    return draw / 0xFFFFFFFF < fraction


def chunk_package(
    pkg: Package,
    *,
    chunk_size: int = CHUNK_SIZE,
    delta_fraction: float = 0.125,
) -> PackageManifest:
    """Split a package's payload into deterministic content chunks.

    Slices keyed ``name:index`` are shared across every version of the
    package; slices keyed ``name:evr:index`` (the ``delta_fraction``) are
    unique to this build.  The final slice carries the payload remainder,
    so its size — and therefore its digest — differs whenever two builds
    differ in total size.
    """
    if chunk_size <= 0:
        raise CasError(f"chunk size must be positive, got {chunk_size}")
    size = pkg.size_bytes
    if size < 0:
        raise CasError(f"{pkg.nevra}: negative payload size {size}")
    count = max(1, -(-size // chunk_size))  # ceil division; >=1 even for empty
    evr = pkg.evr_string
    chunks = []
    for index in range(count):
        slice_size = (
            size - chunk_size * (count - 1) if index == count - 1 else chunk_size
        )
        if _is_version_specific(pkg.name, evr, index, delta_fraction):
            key = f"{pkg.name}:{evr}:{index}"
        else:
            key = f"{pkg.name}:{index}"
        chunks.append(Chunk(digest=_digest(key, slice_size), size=slice_size))
    return PackageManifest(nevra=pkg.nevra, size_bytes=size, chunks=tuple(chunks))
