"""libpcap file format reader/writer.

Traces round-trip through the classic pcap format (magic ``0xa1b2c3d4``,
microsecond timestamps, ``LINKTYPE_RAW`` so each record body is a bare IPv4
packet).  This makes the detector usable on real captures converted with
``tcpdump -w``/``tshark`` as well as on simulator output.

Three reading modes:

* :func:`read_pcap` materializes the whole file as a :class:`Trace`;
* :func:`iter_pcap` streams records one at a time with bounded memory;
* :func:`read_pcap_columnar` / :func:`iter_pcap_columnar` map the file
  with ``mmap`` and decode record headers in place — a chunk of
  constant-caplen records through one structured numpy view, any other
  chunk with ``struct.unpack_from`` over a ``memoryview`` — with no
  ``read()`` call, no heap ``bytes`` copy, and no per-record Python
  object; record bodies stay in the page cache and are referenced by
  offset from :class:`~repro.net.columnar.ColumnarChunk` columns.  This
  is the detector's ingest fast path (see ``docs/PERFORMANCE.md``).

A capture cut off mid-record (``tcpdump -c``, disk-full, a crashed
collector) is common in practice; the partial tail record is dropped with
a :class:`PcapWarning` instead of failing the whole trace.
"""

from __future__ import annotations

import mmap
import struct
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

from repro.net.columnar import ColumnarChunk, ColumnarTrace
from repro.net.trace import SNAPLEN_40, Trace, TraceRecord
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry

_logger = get_logger("pcap")

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
PCAP_MAGIC_NS = 0xA1B23C4D
LINKTYPE_RAW = 101

#: Default record count per chunk for :func:`iter_pcap_columnar` — with a
#: 40-byte snaplen this is a few MiB of mapped data, far below trace size.
DEFAULT_CHUNK_RECORDS = 65_536

#: A record below this many captured bytes cannot hold an IPv4 header and
#: can never participate in detection.
_MIN_IP_HEADER = 20

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_GLOBAL_HEADER_BE = struct.Struct(">IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
_RECORD_HEADER_BE = struct.Struct(">IIII")

#: Item size of the ``I``-typed length columns, for building them from
#: numpy arrays.
_LENGTH_ITEMSIZE = array("I").itemsize


class PcapError(ValueError):
    """Raised for malformed pcap files."""


class PcapWarning(UserWarning):
    """Issued for recoverable defects (a truncated final record)."""


def write_pcap(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` to ``path`` in classic little-endian pcap format."""
    with open(path, "wb") as stream:
        _write_stream(trace, stream)


def _write_stream(trace: Trace, stream: BinaryIO) -> None:
    stream.write(
        _GLOBAL_HEADER.pack(
            PCAP_MAGIC, 2, 4, 0, 0, max(trace.snaplen, SNAPLEN_40), LINKTYPE_RAW
        )
    )
    for record in trace.records:
        seconds = int(record.timestamp)
        micros = int(round((record.timestamp - seconds) * 1_000_000))
        if micros >= 1_000_000:
            seconds += 1
            micros -= 1_000_000
        stream.write(
            _RECORD_HEADER.pack(seconds, micros, len(record.data),
                                record.wire_length)
        )
        stream.write(record.data)


@dataclass(slots=True, frozen=True)
class _PcapHeader:
    """Parsed global header: everything the record loop needs."""

    record_struct: struct.Struct
    divisor: int
    mac_header: int
    snaplen: int


def _read_global_header(stream: BinaryIO) -> _PcapHeader:
    raw_header = stream.read(_GLOBAL_HEADER.size)
    return _parse_global_header(raw_header)


def _parse_global_header(raw_header: bytes) -> _PcapHeader:
    if len(raw_header) < _GLOBAL_HEADER.size:
        raise PcapError("truncated pcap global header")
    magic_le = struct.unpack("<I", raw_header[:4])[0]
    if magic_le in (PCAP_MAGIC, PCAP_MAGIC_NS):
        header_struct, record_struct = _GLOBAL_HEADER, _RECORD_HEADER
        nanos = magic_le == PCAP_MAGIC_NS
    else:
        magic_be = struct.unpack(">I", raw_header[:4])[0]
        if magic_be not in (PCAP_MAGIC, PCAP_MAGIC_NS):
            raise PcapError(f"bad pcap magic: {raw_header[:4].hex()}")
        header_struct, record_struct = _GLOBAL_HEADER_BE, _RECORD_HEADER_BE
        nanos = magic_be == PCAP_MAGIC_NS
    (_, major, minor, _, _, snaplen, linktype) = header_struct.unpack(raw_header)
    if (major, minor) != (2, 4):
        raise PcapError(f"unsupported pcap version {major}.{minor}")
    if linktype not in (LINKTYPE_RAW, 1):
        raise PcapError(f"unsupported linktype {linktype}")
    return _PcapHeader(
        record_struct=record_struct,
        divisor=1_000_000_000 if nanos else 1_000_000,
        mac_header=14 if linktype == 1 else 0,
        snaplen=snaplen or SNAPLEN_40,
    )


def _truncated(detail: str, source: str, stacklevel: int = 4) -> None:
    """A capture ended mid-record: warn (for callers that filter on
    :class:`PcapWarning`), log with the *filename* (so batch runs over
    many pcaps record which file was damaged), and count it."""
    message = (f"pcap capture ends mid-record ({detail}); "
               "dropping the partial final record")
    warnings.warn(message, PcapWarning, stacklevel=stacklevel)
    _logger.warning("%s: %s", source or "<stream>", message)
    get_registry().counter(
        "pcap_truncated_records_total",
        "Partial final records dropped from damaged captures",
    ).inc()


def _iter_records(stream: BinaryIO, header: _PcapHeader,
                  source: str = "") -> Iterator[TraceRecord]:
    record_struct = header.record_struct
    mac_header = header.mac_header
    divisor = header.divisor
    while True:
        raw_record = stream.read(record_struct.size)
        if not raw_record:
            break
        if len(raw_record) < record_struct.size:
            _truncated("truncated record header", source)
            break
        seconds, fraction, captured_len, wire_len = record_struct.unpack(raw_record)
        data = stream.read(captured_len)
        if len(data) < captured_len:
            _truncated(f"{len(data)}/{captured_len} body bytes", source)
            break
        timestamp = seconds + fraction / divisor
        yield TraceRecord(
            timestamp=timestamp,
            data=data[mac_header:],
            wire_length=max(wire_len - mac_header, len(data) - mac_header,
                            0),
        )


def read_pcap(path: str | Path, link_name: str = "",
              progress=None) -> Trace:
    """Read a pcap file into a :class:`Trace`.

    Handles both byte orders and nanosecond-magic files.  Records are
    assumed to be raw IPv4 (``LINKTYPE_RAW``); Ethernet (``LINKTYPE 1``)
    frames have their 14-byte MAC header stripped.

    ``progress`` is called as ``progress(1)`` per record loaded — pass a
    rate-limited :class:`~repro.obs.progress.Heartbeat` for large files.
    """
    with open(path, "rb") as stream:
        return _read_stream(stream, link_name, source=str(path),
                            progress=progress)


def _read_stream(stream: BinaryIO, link_name: str, source: str = "",
                 progress=None) -> Trace:
    header = _read_global_header(stream)
    trace = Trace(link_name=link_name, snaplen=header.snaplen)
    if progress is None:
        for record in _iter_records(stream, header, source):
            trace.append(record)
    else:
        for record in _iter_records(stream, header, source):
            trace.append(record)
            progress(1)
    return trace


def iter_pcap(path: str | Path) -> Iterator[TraceRecord]:
    """Stream a pcap file record by record with bounded memory.

    Yields the records :func:`read_pcap` would load, in order, without
    ever holding more than one record at a time — except records shorter
    than a full IP header, which are skipped here (and counted in the
    ``pcap_short_records_skipped_total`` metric) instead of being
    materialized as :class:`TraceRecord` objects only for the detector to
    discard them later.
    """
    short_counter = get_registry().counter(
        "pcap_short_records_skipped_total",
        "Records below a full IP header skipped at the reader",
    )
    with open(path, "rb") as stream:
        header = _read_global_header(stream)
        for record in _iter_records(stream, header, str(path)):
            if len(record.data) < _MIN_IP_HEADER:
                short_counter.inc()
                continue
            yield record


# -- zero-copy columnar reading ----------------------------------------------


def _mmap_pcap(path: str | Path) -> mmap.mmap:
    with open(path, "rb") as stream:
        stream.seek(0, 2)
        if stream.tell() < _GLOBAL_HEADER.size:
            raise PcapError("truncated pcap global header")
        # The mapping keeps the file open; the descriptor can close now.
        return mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)


def iter_pcap_columnar(
    path: str | Path,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> Iterator[ColumnarChunk]:
    """Stream a pcap file as zero-copy :class:`ColumnarChunk` batches.

    The file is mapped with ``mmap`` and record bodies are never copied;
    each chunk's ``data`` is a ``memoryview`` of the mapping and its
    ``offsets``/``lengths`` columns point into it.  Chunks stay valid for
    as long as any of their views is referenced (the mapping closes only
    once every view is garbage collected).

    Each chunk is decoded one of two ways.  When numpy is available, the
    next ``chunk_records`` records are first viewed as one structured
    array whose record size is set by the chunk's first caplen; if every
    caplen in that view agrees (the paper's fixed-snaplen captures, and
    every trace this package writes) the columns are built at C speed.
    The check is sound: the view stays aligned up to the first record of
    a different size, so that record's caplen field is the one that
    mismatches.  Any other chunk has its headers decoded one by one with
    ``struct.unpack_from``.  Both decoders yield identical columns.

    Records are numbered exactly as :func:`read_pcap` loads them
    (``base_index`` anchors each chunk), including records too short to
    hold an IP header — the detection kernel skips those inline, so
    stream membership indices line up with the materializing reader.
    """
    if chunk_records < 1:
        raise PcapError(f"chunk_records must be >= 1: {chunk_records}")
    from repro.core.vectorize import np

    source = str(path)
    mapped = _mmap_pcap(path)
    buf = memoryview(mapped)
    header = _parse_global_header(bytes(buf[:_GLOBAL_HEADER.size]))
    position = _GLOBAL_HEADER.size
    base_index = 0
    while position < len(buf):
        read = None
        if np is not None:
            read = _read_uniform_chunk(np, buf, position, header,
                                       chunk_records)
        if read is None:
            read = _read_chunk_records(buf, position, header,
                                       chunk_records, source)
        columns, position, done = read
        if columns[0]:
            yield _chunk(buf, columns, header, base_index)
            base_index += len(columns[0])
        if done:
            break


def _chunk(buf: memoryview, columns: tuple, header: _PcapHeader,
           base_index: int) -> ColumnarChunk:
    timestamps, offsets, lengths, wire_lengths = columns
    # A uniform positive captured length means uniformly strided offsets
    # (each record advances the cursor by header + captured bytes), so
    # the chunk can declare its stride and the detection kernel can
    # bulk-mask it.  min/max over the array run at C speed.
    stride = None
    if lengths[0] and min(lengths) == max(lengths):
        stride = header.record_struct.size + header.mac_header + lengths[0]
    return ColumnarChunk(
        data=buf,
        timestamps=timestamps,
        offsets=offsets,
        lengths=lengths,
        wire_lengths=wire_lengths,
        base_index=base_index,
        stride=stride,
    )


def _read_uniform_chunk(np, buf: memoryview, position: int,
                        header: _PcapHeader, chunk_records: int):
    """Decode the chunk at ``position`` through one structured numpy view,
    or return ``None`` when its records do not all share the first
    record's caplen (or a partial record follows the last whole one).

    Returns ``(columns, next position, done)`` like
    :func:`_read_chunk_records`.
    """
    header_size = header.record_struct.size
    file_size = len(buf)
    if position + header_size > file_size:
        return None
    caplen = header.record_struct.unpack_from(buf, position)[2]
    record_size = header_size + caplen
    count = min(chunk_records, (file_size - position) // record_size)
    end = position + count * record_size
    if count < chunk_records and end != file_size:
        return None
    order = "<" if header.record_struct is _RECORD_HEADER else ">"
    field = order + "u4"
    view = np.frombuffer(buf, dtype=np.dtype({
        "names": ["seconds", "fraction", "caplen", "wire"],
        "formats": [field] * 4,
        "offsets": [0, 4, 8, 12],
        "itemsize": record_size,
    }), count=count, offset=position)
    if not bool((view["caplen"] == caplen).all()):
        return None
    timestamps = view["fraction"] / header.divisor
    timestamps += view["seconds"]
    mac_header = header.mac_header
    length = caplen - mac_header if caplen > mac_header else 0
    first = position + header_size + (mac_header if length else 0)
    # Same rule as the per-record decoder, max(wire - mac, caplen - mac,
    # 0), without leaving uint32: the wire length never drops below the
    # captured length, nor below zero once a MAC header is stripped.
    wire = np.maximum(view["wire"], max(caplen, mac_header)) - mac_header
    offsets = np.arange(first, first + count * record_size, record_size,
                        dtype=np.uint64)
    columns = (array("d"), array("Q"), array("I", [length]) * count,
               array("I"))
    columns[0].frombytes(timestamps.view(np.uint8))
    columns[1].frombytes(offsets.view(np.uint8))
    columns[3].frombytes(
        wire.astype(f"=u{_LENGTH_ITEMSIZE}", copy=False).view(np.uint8))
    return columns, end, end == file_size


def _read_chunk_records(buf: memoryview, position: int,
                        header: _PcapHeader, chunk_records: int,
                        source: str):
    """Decode up to ``chunk_records`` records at ``position`` one header
    at a time.  Returns ``(columns, next position, done)``; ``done`` is
    set at end of file and after a truncated final record."""
    unpack_from = header.record_struct.unpack_from
    header_size = header.record_struct.size
    mac_header = header.mac_header
    divisor = header.divisor
    file_size = len(buf)
    timestamps = array("d")
    offsets = array("Q")
    lengths = array("I")
    wire_lengths = array("I")
    columns = (timestamps, offsets, lengths, wire_lengths)
    # Bound-method hoists: the loop below runs once per record on the
    # step-1 hot path, so every attribute lookup it sheds is measurable.
    ts_append = timestamps.append
    off_append = offsets.append
    len_append = lengths.append
    wire_append = wire_lengths.append
    for _ in range(chunk_records):
        if position >= file_size:
            return columns, position, True
        if position + header_size > file_size:
            _truncated("truncated record header", source, stacklevel=5)
            return columns, position, True
        seconds, fraction, captured_len, wire_len = unpack_from(
            buf, position
        )
        position += header_size
        end = position + captured_len
        if end > file_size:
            available = file_size - position
            _truncated(f"{available}/{captured_len} body bytes", source,
                       stacklevel=5)
            return columns, position, True
        if mac_header:
            length = (captured_len - mac_header
                      if captured_len > mac_header else 0)
            off_append(position + mac_header if length else position)
            len_append(length)
            wire_append(max(wire_len - mac_header,
                            captured_len - mac_header, 0))
        else:
            off_append(position)
            len_append(captured_len)
            wire_append(wire_len if wire_len >= captured_len
                        else captured_len)
        ts_append(seconds + fraction / divisor)
        position = end
    return columns, position, position >= file_size


def read_pcap_columnar(
    path: str | Path,
    link_name: str = "",
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    progress=None,
) -> ColumnarTrace:
    """Map a pcap file as a zero-copy :class:`ColumnarTrace`.

    Loads the same records as :func:`read_pcap` — same timestamps, bytes,
    and wire lengths, proven record-for-record in the test suite — while
    allocating a handful of columns per 65k records instead of one
    :class:`TraceRecord` per packet.

    ``progress`` is called as ``progress(n)`` once per chunk with the
    chunk's record count — pass a rate-limited
    :class:`~repro.obs.progress.Heartbeat` for large files.
    """
    if progress is None:
        chunks = list(iter_pcap_columnar(path, chunk_records=chunk_records))
    else:
        chunks = []
        for chunk in iter_pcap_columnar(path, chunk_records=chunk_records):
            chunks.append(chunk)
            progress(len(chunk))
    # Re-parse the global header for the snaplen (the chunks only carry
    # record columns) and pin the mapping via the trace.
    with open(path, "rb") as stream:
        snaplen = _read_global_header(stream).snaplen
    buffers = [chunks[0].data] if chunks else []
    return ColumnarTrace(
        chunks=chunks,
        link_name=link_name,
        snaplen=snaplen,
        buffers=buffers,
    )
