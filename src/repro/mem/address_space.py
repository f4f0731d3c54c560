"""Simulated 64-bit virtual address spaces.

An ``AddressSpace`` holds disjoint ``Mapping``s (data segment, heap, stacks,
anonymous mmaps, "shared libraries").  Pointers stored by simulated programs
are genuine 8-byte little-endian words inside each mapping's host bytes,
which is what makes MCR's precise tracing, conservative likely-pointer
scanning, and relocation *real* operations here rather than mock-ups.

Layout conventions (documented, not load-bearing):

* ``0x0000_0060_0000`` — static data segment(s)
* ``0x0000_0100_0000`` — heap (ptmalloc arena, brk-style growth)
* ``0x0000_7000_0000`` — anonymous mmap region (grows up)
* ``0x0000_7f00_0000`` — shared-library images

Host backing is sparse.  Each mapping's bytes live in an anonymous private
host ``mmap``, which the host kernel zero-fills on first touch, so a page
the simulated program never writes costs neither a memset nor host RSS.
fork() gives the child a fresh buffer of the same kind and copies only the
parent's *host-resident* pages: those written through the address space
(``PageTracker.ever_written``) or stored by ``Mapping.load``.  Every other
page reads as zero in both.  Buffers are never shared, so writes need no
barrier, and the paper's RSS figures still come from the simulated resident
set (``resident_bytes``), not from the host.
"""

from __future__ import annotations

import bisect as _bisect
import mmap as _mmap
import struct as _struct
import zlib as _zlib
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import MemoryFault
from repro.mem.pages import PAGE_SIZE, PageTracker

DATA_BASE = 0x0000_0060_0000
HEAP_BASE = 0x0000_0100_0000
MMAP_BASE = 0x0000_7000_0000
LIB_BASE = 0x0000_7F00_0000


def _round_up_pages(size: int) -> int:
    return ((size + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE


def _host_buffer(size: int) -> _mmap.mmap:
    """A lazily zero-filled, unshared host buffer of ``size`` bytes."""
    return _mmap.mmap(-1, size, flags=_mmap.MAP_PRIVATE)


def _page_runs(pages: Iterable[int]) -> Iterator[Tuple[int, int]]:
    """Coalesce page indices into ``[first, stop)`` runs, ascending."""
    ordered = sorted(pages)
    if not ordered:
        return
    first = stop = ordered[0]
    for page in ordered:
        if page != stop:
            yield first, stop
            first = page
        stop = page + 1
    yield first, stop


# CRC-32 (zlib's polynomial, bit-reflected) and x^(2^k) mod it, k = 0..63.
_CRC_POLY = 0xEDB88320


def _crc_multmodp(a: int, b: int) -> int:
    """a(x) * b(x) modulo the CRC-32 polynomial, both bit-reflected."""
    product = 0
    for _ in range(32):
        if a & 0x80000000:
            product ^= b
        a = (a << 1) & 0xFFFFFFFF
        b = (b >> 1) ^ _CRC_POLY if b & 1 else b >> 1
    return product


def _crc_x2n_table() -> List[int]:
    table = [1 << 30]  # x^1
    for _ in range(63):
        table.append(_crc_multmodp(table[-1], table[-1]))
    return table


_CRC_X2N = _crc_x2n_table()


def crc32_zeros(crc: int, n: int) -> int:
    """``zlib.crc32(bytes(n), crc)`` without touching ``n`` bytes.

    Feeding zero bytes to the CRC register multiplies it by x^(8n) modulo
    the polynomial, so the extension is one product with x^(8n), built
    from the table by the bits of ``8n`` (zlib's ``crc32_combine``).
    """
    if n <= 0:
        return crc
    power = 1 << 31  # x^0
    bits, k = n << 3, 0
    while bits:
        if bits & 1:
            power = _crc_multmodp(_CRC_X2N[k], power)
        bits >>= 1
        k += 1
    return _crc_multmodp(power, crc ^ 0xFFFFFFFF) ^ 0xFFFFFFFF


class Mapping:
    """One contiguous region of simulated memory.

    ``data`` is the sparse host backing (see the module docstring).  Only
    this module writes it: ``AddressSpace`` on behalf of the simulated
    program, with every write noted in ``tracker``, and ``load`` for bytes
    restored from a checkpoint.  A page outside ``resident_pages()`` reads
    as zero, which is what lets ``clone`` skip it.
    """

    def __init__(self, base: int, size: int, name: str, kind: str) -> None:
        self.base = base
        self.size = _round_up_pages(size)
        self.name = name
        self.kind = kind  # "data" | "heap" | "stack" | "mmap" | "lib"
        self.data = _host_buffer(self.size)
        self.tracker = PageTracker(base, self.size)
        # Pages stored by ``load``: host-resident, yet invisible to the
        # tracker, whose soft-dirty and write-sequence state a restore
        # must not disturb.
        self._loaded: Set[int] = set()

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def resident_pages(self) -> Set[int]:
        """Page indices whose host bytes may be non-zero."""
        return self.tracker.ever_written | self._loaded

    def crc32(self) -> int:
        """``zlib.crc32`` of the mapping's bytes, reading only resident pages.

        Every other page reads as zero, so its bytes extend the CRC in
        closed form (``crc32_zeros``) and cost neither a host read nor a
        host page fault.
        """
        crc = done = 0
        with memoryview(self.data) as data:
            for first, stop in _page_runs(self.resident_pages()):
                lo, hi = first * PAGE_SIZE, stop * PAGE_SIZE
                crc = _zlib.crc32(data[lo:hi], crc32_zeros(crc, lo - done))
                done = hi
        return crc32_zeros(crc, self.size - done)

    def load(self, offset: int, blob: bytes) -> None:
        """Store checkpointed ``blob`` at ``offset``, behind the tracker.

        The restore and standby graft paths reproduce captured state rather
        than perform program writes, so soft-dirty bits, ``write_seq`` and
        the simulated resident set stay as they are.  Stored pages become
        host-resident; an all-zero page landing on a non-resident page is
        skipped, because that page already reads as zero.
        """
        end = offset + len(blob)
        if offset < 0 or end > self.size:
            raise MemoryFault(self.base + max(offset, 0), "load crosses mapping bounds")
        written = self.tracker.ever_written
        loaded = self._loaded
        start = offset
        while start < end:
            page = start // PAGE_SIZE
            stop = min((page + 1) * PAGE_SIZE, end)
            piece = blob[start - offset : stop - offset]
            if page in written or page in loaded or piece.count(0) != len(piece):
                self.data[start:stop] = piece
                loaded.add(page)
            start = stop

    def clone(self) -> "Mapping":
        twin = Mapping.__new__(Mapping)
        twin.base = self.base
        twin.size = self.size
        twin.name = self.name
        twin.kind = self.kind
        twin.data = _host_buffer(self.size)
        twin.tracker = self.tracker.clone()
        twin._loaded = set(self._loaded)
        with memoryview(self.data) as source:
            for first, stop in _page_runs(self.resident_pages()):
                lo, hi = first * PAGE_SIZE, stop * PAGE_SIZE
                twin.data[lo:hi] = source[lo:hi]
        return twin

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Mapping {self.name} [0x{self.base:x}, 0x{self.end:x}) {self.kind}>"


class AddressSpace:
    """A process's virtual memory: disjoint mappings + access methods."""

    def __init__(self) -> None:
        self._mappings: List[Mapping] = []
        self._bases: List[int] = []  # sorted mapping bases, parallel to _mappings
        self._hit: Optional[Mapping] = None  # last mapping_at result (hot-path cache)
        self._mmap_cursor = MMAP_BASE
        self._lib_cursor = LIB_BASE
        self.soft_dirty_faults = 0  # total write-protect faults taken

    # -- mapping management --------------------------------------------

    def map(
        self,
        size: int,
        address: Optional[int] = None,
        name: str = "anon",
        kind: str = "mmap",
        fixed: bool = False,
    ) -> Mapping:
        """Create a mapping; MAP_FIXED semantics when ``fixed`` is set."""
        size = _round_up_pages(size)
        if fixed:
            if address is None:
                raise ValueError("fixed mapping requires an address")
            base = address
        elif address is not None:
            base = address
        elif kind == "lib":
            base = self._lib_cursor
            self._lib_cursor += size + PAGE_SIZE  # guard page gap
        else:
            base = self._mmap_cursor
            self._mmap_cursor += size + PAGE_SIZE
        if base % PAGE_SIZE:
            raise ValueError(f"mapping base not page-aligned: 0x{base:x}")
        overlapping = self._find_overlap(base, size)
        if overlapping is not None:
            raise MemoryFault(base, f"mapping overlaps {overlapping.name}")
        mapping = Mapping(base, size, name, kind)
        self._insert(mapping)
        return mapping

    def unmap(self, base: int) -> None:
        mapping = self.mapping_at(base)
        if mapping is None or mapping.base != base:
            raise MemoryFault(base, "munmap of unmapped base")
        index = _bisect.bisect_left(self._bases, base)
        del self._mappings[index]
        del self._bases[index]
        self._hit = None

    def _insert(self, mapping: Mapping) -> None:
        index = _bisect.bisect_left(self._bases, mapping.base)
        self._mappings.insert(index, mapping)
        self._bases.insert(index, mapping.base)

    def _find_overlap(self, base: int, size: int) -> Optional[Mapping]:
        end = base + size
        for m in self._mappings:
            if m.base < end and base < m.end:
                return m
        return None

    def mapping_at(self, address: int) -> Optional[Mapping]:
        hit = self._hit
        if hit is not None and hit.base <= address < hit.end:
            return hit
        index = _bisect.bisect_right(self._bases, address) - 1
        if index >= 0:
            mapping = self._mappings[index]
            if address < mapping.end:
                self._hit = mapping
                return mapping
        return None

    def mappings(self, kind: Optional[str] = None) -> Iterator[Mapping]:
        for m in self._mappings:
            if kind is None or m.kind == kind:
                yield m

    def is_mapped(self, address: int) -> bool:
        return self.mapping_at(address) is not None

    # -- byte access (the MemoryView protocol) --------------------------

    def _unmapped_detail(self, address: int) -> str:
        """Describe where an unmapped address sits relative to mappings.

        Reads/writes that start in a guard-page gap between mappings are a
        common instrumentation bug; naming the neighbours turns "read of
        unmapped memory" into something actionable.
        """
        index = _bisect.bisect_right(self._bases, address) - 1
        below = self._mappings[index] if index >= 0 else None
        above = self._mappings[index + 1] if index + 1 < len(self._mappings) else None
        if below is not None and above is not None:
            return (
                f" (in the gap between '{below.name}' ending at 0x{below.end:x} "
                f"and '{above.name}' starting at 0x{above.base:x})"
            )
        if below is not None:
            return f" (0x{address - below.end:x} bytes past '{below.name}' ending at 0x{below.end:x})"
        if above is not None:
            return f" (0x{above.base - address:x} bytes before '{above.name}' at 0x{above.base:x})"
        return " (no mappings exist)"

    def _locate(self, address: int, size: int, verb: str) -> Mapping:
        """The mapping backing ``[address, address+size)``, or MemoryFault."""
        mapping = self.mapping_at(address)
        if mapping is None:
            raise MemoryFault(
                address,
                f"{verb} of unmapped memory{self._unmapped_detail(address)}",
            )
        if address - mapping.base + size > mapping.size:
            raise MemoryFault(address + size, f"{verb} crosses mapping end")
        return mapping

    def read_bytes(self, address: int, size: int) -> bytes:
        mapping = self._locate(address, size, "read")
        offset = address - mapping.base
        return mapping.data[offset : offset + size]

    def view(self, address: int, size: int) -> memoryview:
        """A zero-copy, read-only window over ``[address, address+size)``.

        The window must lie inside a single mapping.  Callers that decode
        many words (the conservative scanner) cast the view instead of
        materializing per-word ``bytes``.  It is read-only because a write
        through it would bypass the soft-dirty bits and ``write_seq``, and
        so be lost to deltas, the incremental scan cache and fork.
        """
        mapping = self._locate(address, size, "view")
        offset = address - mapping.base
        return memoryview(mapping.data)[offset : offset + size].toreadonly()

    def write_bytes(self, address: int, data: bytes) -> None:
        mapping = self._locate(address, len(data), "write")
        offset = address - mapping.base
        mapping.data[offset : offset + len(data)] = data
        self.soft_dirty_faults += mapping.tracker.note_write(address, len(data))

    def read_word(self, address: int) -> int:
        mapping = self._locate(address, 8, "read")
        return _struct.unpack_from("<Q", mapping.data, address - mapping.base)[0]

    def write_word(self, address: int, value: int) -> None:
        mapping = self._locate(address, 8, "write")
        _struct.pack_into(
            "<Q", mapping.data, address - mapping.base, value & 0xFFFFFFFFFFFFFFFF
        )
        self.soft_dirty_faults += mapping.tracker.note_write(address, 8)

    # -- soft-dirty interface (CRIU-style) -------------------------------

    def clear_soft_dirty(self) -> None:
        """Mark every page in every mapping soft-clean."""
        for m in self._mappings:
            m.tracker.clear()

    def range_dirty(self, address: int, size: int) -> bool:
        """Does ``[address, address+size)`` overlap any soft-dirty page?"""
        mapping = self.mapping_at(address)
        if mapping is None:
            raise MemoryFault(address, "dirty query on unmapped memory")
        return mapping.tracker.range_dirty(address, size)

    def dirty_page_count(self) -> int:
        return sum(m.tracker.dirty_page_count() for m in self._mappings)

    def total_pages(self) -> int:
        return sum(m.tracker.num_pages for m in self._mappings)

    # -- footprint / fork -------------------------------------------------

    def resident_bytes(self) -> int:
        """Demand-paged footprint: pages ever written (the RSS analogue)."""
        return sum(len(m.tracker.ever_written) * PAGE_SIZE for m in self._mappings)

    def mapped_bytes(self) -> int:
        """Total mapped virtual bytes (the VSZ analogue)."""
        return sum(m.size for m in self._mappings)

    def clone(self) -> "AddressSpace":
        """fork(): duplicate all mappings, copying only host-resident pages."""
        twin = AddressSpace()
        twin._mmap_cursor = self._mmap_cursor
        twin._lib_cursor = self._lib_cursor
        twin._mappings = [m.clone() for m in self._mappings]
        twin._bases = [m.base for m in twin._mappings]
        return twin
