"""The versioned binary wire format: dictionary-coded columnar frames.

The serve protocol's v1 encoding moves *rows*: a batch payload is one
newline-JSON object whose bags are ``{"schema": ..., "tuples": ...}``
row lists, and the receiving daemon re-validates and re-fingerprints
every bag from scratch.  This module adds the **v2 frame**: a
length-prefixed binary message that ships each bag once, as int64
*code* arrays plus the per-column dictionaries those codes index, with
the sender's content fingerprint riding along — so the receiver skips
validation, and a repeat request is a pure :class:`VerdictStore` probe
with no content scan.  The ``fp`` is the peer's claim and keys store
reads only (:func:`repro.engine.fingerprint.claim`): a miss computes
from the content and stores under the fingerprint the daemon derives,
so a forged ``fp`` misleads only its sender.

Frame layout (all integers little-endian)::

    MAGIC(4) | version u8 | header_len u32 | blob_len u64
    header: UTF-8 JSON of ``header_len`` bytes
    blob:   ``blob_len`` bytes of packed little-endian int64 arrays

The header of a **jobs frame** is ``{"v": 2, "payload": ..., "bags":
[...]}`` — the payload is the ordinary batch object with every bag slot
replaced by a ``{"$bag": i}`` reference into ``bags`` (``"$bag"`` is
reserved in v2 payloads), and each bag descriptor is either

* inline JSON — ``{"json": <bag dict>, "fp": <fingerprint>}`` — or
* columnar — ``{"schema": [...], "n": rows, "total": mult_total,
  "fp": <fingerprint>, "mults": [off, len], "cols": [{"codes":
  [off, len], "values": [...]}, ...]}`` — where ``codes`` index the
  column's **local dictionary** ``values``.

Local dictionaries: a column's ``values`` are the distinct values the
bag uses, in first-occurrence order, and its codes are positions in
that list.  Nothing is shared between bags, peers or processes, so the
receiver decodes with one gather per column (``values[code]``) and no
remap; codes are read unsigned, so a negative code indexes past the end
and the gather bounds-checks itself.  Rows travel in the canonical
row order of the bag's content
(:meth:`~repro.engine.index.BagIndex.sorted_rows`), the order
:func:`repro.io.bag_to_dict` writes, so a bag decodes with the same
row order from a frame as from a JSON line, and the receiver's
canonical pass finds its records already sorted.

Inline rule: a dictionary keeps one entry per Python-equal value, so a
bag rides inline whenever that would change a value :mod:`repro.io`
keeps apart — a column holding a non-JSON scalar, mixing ``bool``,
``int`` and ``float`` (``True == 1 == 1.0``), or holding both ``0.0``
and ``-0.0`` — and so does a bag under :data:`MIN_ROWS` rows or with a
multiplicity past int64.  Either way the receiver rebuilds exactly the
sender's values, so reports are byte-equal over both formats.  A value
JSON cannot carry (a tuple would arrive as an array) is refused with
:class:`~repro.errors.SchemaError` before anything is sent.  The
sender caches each bag's export on its
:class:`~repro.engine.index.BagIndex`, so a bag sent in many frames is
encoded once.  Response frames carry ``{"v": 2, "response": {...}}``
and no blob; a peer that never negotiates v2 keeps speaking newline
JSON.

Counters here (frames and bytes per direction, JSON-line traffic for
comparison) are locked :mod:`repro.obs` registry counters — exact
under free threading — surfaced in the historical flat-dict shape as
the ``kernels`` section of batch reports and the ``stats`` op, and in
Prometheus/JSON form through the ``metrics`` serve op.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from array import array
from itertools import chain
from typing import Callable

from .. import io as repro_io
from ..core.bags import Bag
from ..obs import metrics as obs_metrics
from ..core.schema import Schema
from ..errors import ReproError, SchemaError
from . import fingerprint
from .index import BagIndex

__all__ = [
    "HeaderError",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "MAX_HEADER_BYTES",
    "MAX_LINE",
    "MIN_ROWS",
    "VERSION",
    "WireError",
    "decode_jobs_frame",
    "encode_jobs_frame",
    "encode_response_frame",
    "jsonify_payload",
    "payload_has_bags",
    "read_frame",
    "response_from_frame",
    "split_frame",
    "wire_stats",
]

MAGIC = b"RPWF"
VERSION = 2

_PREFIX = struct.Struct("<BIQ")
_PREFIX_LEN = len(MAGIC) + _PREFIX.size

# Defensive ceilings, module attributes so tests can tighten them: a
# malformed or hostile length prefix must not make the server allocate
# without bound, and an unterminated JSON line must not buffer forever.
MAX_HEADER_BYTES = 1 << 26
MAX_FRAME_BYTES = 1 << 31
MAX_LINE = 32 * 1024 * 1024

# Bags with fewer support rows ride inline as JSON rows.
MIN_ROWS = 32

_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))
_NUMBERS = frozenset((bool, int, float))


class WireError(ReproError):
    """A malformed, truncated, or oversized wire frame."""


class HeaderError(WireError):
    """A frame read whole whose header does not decode; the stream it
    came from is still in sync."""


# -- observability ------------------------------------------------------

# Locked registry counters (repro.obs): the daemon's handler threads
# count frames and lines concurrently.  ``wire_stats`` keeps the
# historical flat-dict shape byte-compatible.
_STATS_KEYS = (
    "wire_frames_encoded", "wire_frames_decoded",
    "wire_frame_bytes_encoded", "wire_frame_bytes_decoded",
    "wire_json_requests", "wire_json_bytes",
)
_COUNTERS = {
    key: obs_metrics.REGISTRY.counter("repro_" + key)
    for key in _STATS_KEYS
}


def wire_stats() -> dict:
    """The process-wide wire counters (the ``kernels`` section of batch
    reports and of the ``stats`` op)."""
    return {key: _COUNTERS[key].value for key in _STATS_KEYS}


def count_json_request(n_bytes: int) -> None:
    """Record one newline-JSON request of ``n_bytes`` — the row-path
    traffic the frame counters are compared against."""
    _COUNTERS["wire_json_requests"].inc()
    _COUNTERS["wire_json_bytes"].inc(n_bytes)


# -- framing ------------------------------------------------------------


class _BlobWriter:
    """Accumulates blob sections; ``add`` returns the ``[off, len]``
    reference a descriptor embeds."""

    def __init__(self) -> None:
        self.parts: list[bytes] = []
        self.size = 0

    def add(self, data: bytes) -> list[int]:
        ref = [self.size, len(data)]
        self.parts.append(data)
        self.size += len(data)
        return ref

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


def pack_frame(header: dict, writer: _BlobWriter | None = None) -> bytes:
    try:
        header_bytes = json.dumps(
            header, separators=(",", ":")
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"frame header not JSON-serializable: {exc}") from exc
    blob = writer.getvalue() if writer is not None else b""
    frame = b"".join((
        MAGIC,
        _PREFIX.pack(VERSION, len(header_bytes), len(blob)),
        header_bytes,
        blob,
    ))
    _COUNTERS["wire_frames_encoded"].inc()
    _COUNTERS["wire_frame_bytes_encoded"].inc(len(frame))
    return frame


def _read_exact(stream, n: int, first: bytes = b"") -> bytes:
    chunks = [first]
    remaining = n
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            raise WireError("truncated frame (peer closed mid-frame)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _check_prefix(prefix: bytes) -> tuple[int, int]:
    if prefix[: len(MAGIC)] != MAGIC:
        raise WireError("bad frame magic")
    version, header_len, blob_len = _PREFIX.unpack_from(prefix, len(MAGIC))
    if version != VERSION:
        raise WireError(
            f"unsupported wire version {version} "
            f"(this build speaks {VERSION})"
        )
    if header_len > MAX_HEADER_BYTES:
        raise WireError(f"frame header exceeds {MAX_HEADER_BYTES} bytes")
    if blob_len > MAX_FRAME_BYTES:
        raise WireError(f"frame blob exceeds {MAX_FRAME_BYTES} bytes")
    return header_len, blob_len


def _parse_header(header_bytes: bytes) -> dict:
    try:
        header = json.loads(header_bytes)
    except (ValueError, RecursionError) as exc:
        # also invalid UTF-8, over-long integers, over-deep nesting
        raise HeaderError(f"invalid JSON in frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise HeaderError("frame header must be a JSON object")
    return header


def read_frame(stream, first: bytes = b"") -> tuple[dict, bytes]:
    """Read one complete frame off a blocking binary stream; ``first``
    is any already-consumed prefix (protocol sniffing reads one byte).
    Raises :class:`WireError` on truncation or malformation.  The
    header is decoded only once the whole frame is read, so a header
    that does not decode raises :class:`HeaderError` with the stream
    still in sync; after any other error (a bad prefix, an oversized
    length, a truncated frame) it is unsynchronized and must be
    closed."""
    prefix = _read_exact(stream, _PREFIX_LEN - len(first), first)
    header_len, blob_len = _check_prefix(prefix)
    header_bytes = _read_exact(stream, header_len)
    blob = _read_exact(stream, blob_len)
    header = _parse_header(header_bytes)
    _COUNTERS["wire_frames_decoded"].inc()
    _COUNTERS["wire_frame_bytes_decoded"].inc(_PREFIX_LEN + header_len + blob_len)
    return header, blob


def split_frame(buf) -> tuple[dict, "memoryview"]:
    """Split an in-memory frame into its header and a zero-copy blob
    view."""
    view = memoryview(buf)
    if len(view) < _PREFIX_LEN:
        raise WireError("truncated frame buffer")
    header_len, blob_len = _check_prefix(bytes(view[:_PREFIX_LEN]))
    end = _PREFIX_LEN + header_len + blob_len
    if end > len(view):
        raise WireError("truncated frame buffer")
    header = _parse_header(bytes(view[_PREFIX_LEN:_PREFIX_LEN + header_len]))
    _COUNTERS["wire_frames_decoded"].inc()
    _COUNTERS["wire_frame_bytes_decoded"].inc(end)
    return header, view[_PREFIX_LEN + header_len:end]


def encode_response_frame(response: dict) -> bytes:
    return pack_frame({"v": VERSION, "response": response})


def response_from_frame(header: dict) -> dict:
    response = header.get("response")
    if not isinstance(response, dict):
        raise WireError("frame response missing body")
    return response


# -- payload walking ----------------------------------------------------


def _walk_payload(payload: dict, convert: Callable) -> dict:
    """Copy ``payload`` with ``convert`` applied to every bag slot of
    the recognized job shapes; unrecognized shapes pass through for the
    server-side validator to reject with its usual one-line errors."""
    out: dict = {}
    for key, value in payload.items():
        if key == "pairs" and isinstance(value, (list, tuple)):
            entries = []
            for entry in value:
                if isinstance(entry, (list, tuple)) and len(entry) == 2:
                    entries.append([convert(entry[0]), convert(entry[1])])
                else:
                    entries.append(entry)
            out[key] = entries
        elif key == "collections" and isinstance(value, (list, tuple)):
            entries = []
            for entry in value:
                if isinstance(entry, dict) and isinstance(
                    entry.get("bags"), (list, tuple)
                ):
                    converted = dict(entry)
                    converted["bags"] = [
                        convert(bag) for bag in entry["bags"]
                    ]
                    entries.append(converted)
                else:
                    entries.append(entry)
            out[key] = entries
        else:
            out[key] = value
    return out


def payload_has_bags(payload: object) -> bool:
    """True when any bag slot of ``payload`` holds a live :class:`Bag`
    object (the case the v2 frame accelerates)."""
    if not isinstance(payload, dict):
        return False
    found = False

    def probe(obj):
        nonlocal found
        found = found or isinstance(obj, Bag)
        return obj

    _walk_payload(payload, probe)
    return found


def jsonify_payload(payload: object) -> object:
    """``payload`` with every :class:`Bag` object replaced by its JSON
    row encoding — the v1 newline protocol ships dicts only.  Raises
    :class:`SchemaError` for a bag value JSON cannot carry."""
    if not isinstance(payload, dict):
        return payload

    def convert(obj):
        return _bag_json(obj) if isinstance(obj, Bag) else obj

    return _walk_payload(payload, convert)


def _bag_json(bag: Bag) -> dict:
    """The bag's JSON row encoding, refusing a value that JSON cannot
    carry: a tuple would arrive as an array, which the receiver must
    refuse as a value the sender never wrote."""
    values = chain.from_iterable(bag._mults)
    if not _JSON_SCALARS.issuperset(map(type, values)):
        for value in chain.from_iterable(bag._mults):
            if not isinstance(value, (str, int, float, type(None))):
                raise SchemaError(
                    f"bag value {value!r} ({type(value).__name__}) cannot "
                    "travel as JSON; row values must be strings, numbers, "
                    "booleans or null"
                )
    return repro_io.bag_to_dict(bag)


# -- bag export ---------------------------------------------------------


def _le_bytes(arr: array) -> bytes:
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        arr.byteswap()
    return arr.tobytes()


def _signed_zeros(col: tuple) -> bool:
    """True when ``col`` holds both ``0.0`` and ``-0.0``: equal, so one
    dictionary entry, yet apart in JSON and in fingerprints."""
    signs = {math.copysign(1.0, value) for value in col if value == 0.0}
    return len(signs) > 1


def _encode_column(col: tuple) -> tuple[bytes, list] | None:
    """One column as its codes blob and local dictionary, or ``None``
    when a dictionary would merge values :mod:`repro.io` keeps apart."""
    types = set(map(type, col))
    if not types <= _JSON_SCALARS or len(types & _NUMBERS) > 1:
        return None
    values = dict.fromkeys(col)
    if float in types and 0.0 in values and _signed_zeros(col):
        return None
    index = dict(zip(values, range(len(values))))
    return _le_bytes(array("q", map(index.__getitem__, col))), list(values)


def _encode_bag(index: BagIndex) -> tuple | None:
    # Rows go in canonical order, the order repro.io writes, so a bag
    # decodes in the same row order from a frame as from a JSON line.
    rows = index.sorted_rows()
    try:
        mults = array("q", map(index._mults.__getitem__, rows))
    except OverflowError:
        return None  # a multiplicity past int64
    columns = []
    for col in zip(*rows):
        column = _encode_column(col)
        if column is None:
            return None
        columns.append(column)
    return len(rows), sum(mults), _le_bytes(mults), columns


def _export(bag: Bag) -> tuple | None:
    """The bag's columnar export — ``(n, total, mults blob, [(codes
    blob, values), ...])`` — or ``None`` when it rides inline.  Cached
    on the bag's :class:`BagIndex` (``()`` marks an inline bag); a
    racing fill computes an equal value, like every other index memo."""
    if len(bag._mults) < MIN_ROWS:
        return None
    index = BagIndex.of(bag)
    if index._export is None:
        index._export = _encode_bag(index) or ()
    return index._export or None


def _export_bag(bag: Bag, fp: int, writer: _BlobWriter) -> dict:
    export = _export(bag)
    if export is None:
        return {"json": _bag_json(bag), "fp": fp}
    n, total, mults, columns = export
    return {
        "schema": list(bag._schema.attrs),
        "n": n,
        "total": total,
        "fp": fp,
        "mults": writer.add(mults),
        "cols": [
            {"codes": writer.add(codes), "values": values}
            for codes, values in columns
        ],
    }


def encode_jobs_frame(payload: dict) -> bytes:
    """One batch payload (bag slots may hold :class:`Bag` objects or
    plain JSON dicts) as one v2 frame.  Bag objects are deduplicated by
    content fingerprint — a bag appearing in many pairs ships once."""
    if not isinstance(payload, dict):
        raise WireError("jobs payload must be a JSON object")
    writer = _BlobWriter()
    descriptors: list = []
    by_fp: dict[int, int] = {}

    def convert(obj):
        if isinstance(obj, Bag):
            fp = fingerprint.of_bag(obj)
            index = by_fp.get(fp)
            if index is None:
                index = len(descriptors)
                descriptors.append(_export_bag(obj, fp, writer))
                by_fp[fp] = index
            return {"$bag": index}
        if isinstance(obj, dict):
            descriptors.append({"json": obj})
            return {"$bag": len(descriptors) - 1}
        return obj

    out_payload = _walk_payload(payload, convert)
    header = {"v": VERSION, "payload": out_payload}
    if descriptors:
        header["bags"] = descriptors
    return pack_frame(header, writer)


# -- bag import ---------------------------------------------------------


def _check_fp(fp: object) -> int:
    if isinstance(fp, bool) or not isinstance(fp, int) \
            or not 0 <= fp < (1 << 128):
        raise WireError(f"bad bag fingerprint in frame: {fp!r}")
    return fp


def _blob_slice(blob, ref: object, expected: int) -> "memoryview":
    view = blob if isinstance(blob, memoryview) else memoryview(blob)
    try:
        off, length = ref
    except (TypeError, ValueError):
        raise WireError(f"bad blob reference in frame: {ref!r}") from None
    if (
        isinstance(off, bool) or isinstance(length, bool)
        or not isinstance(off, int) or not isinstance(length, int)
        or off < 0 or length != expected or off + length > len(view)
    ):
        raise WireError(
            f"blob reference {ref!r} outside frame "
            f"(expected {expected} bytes in {len(view)})"
        )
    return view[off:off + length]


def _int64s(buf, typecode: str) -> array:
    """A blob section as signed (``"q"``) or unsigned (``"Q"``)
    int64s; :func:`_blob_slice` has checked its length."""
    arr = array(typecode)
    arr.frombytes(buf)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        arr.byteswap()
    return arr


def _decode_rows_python(attrs, n, mults_buf, columns):
    """A columnar descriptor's rows and multiplicities: one gather per
    column through unsigned codes, so an out-of-range code — negative
    ones included — raises instead of wrapping around."""
    mults = _int64s(mults_buf, "q")
    if n and min(mults) <= 0:
        raise WireError("non-positive multiplicity in frame")
    try:
        decoded_cols = [
            list(map(values.__getitem__, _int64s(codes_buf, "Q")))
            for codes_buf, values in columns
        ]
    except IndexError:
        raise WireError("dictionary code out of range in frame") from None
    rows = list(zip(*decoded_cols)) if attrs else [()] * n
    return rows, mults.tolist()


def _bag_from_descriptor(desc: object, blob) -> Bag:
    if not isinstance(desc, dict):
        raise WireError(f"bad bag descriptor in frame: {desc!r}")
    if "json" in desc:
        try:
            bag = repro_io.bag_from_dict(desc["json"])
        except SchemaError as exc:
            raise WireError(f"bad inline bag in frame: {exc}") from exc
        fp = desc.get("fp")
        if fp is not None:
            fingerprint.claim(bag, _check_fp(fp))
        return bag
    try:
        attrs, n, total = desc["schema"], desc["n"], desc["total"]
        fp, mult_ref, col_descs = desc["fp"], desc["mults"], desc["cols"]
    except KeyError as exc:
        raise WireError(f"bag descriptor missing {exc}") from exc
    fp = _check_fp(fp)
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise WireError(f"bad row count in frame: {n!r}")
    if not isinstance(attrs, list) or not isinstance(col_descs, list) \
            or len(col_descs) != len(attrs):
        raise WireError("bag descriptor schema/column mismatch")
    try:
        schema = Schema(attrs)
    except SchemaError as exc:
        raise WireError(f"bad schema in frame: {exc}") from exc
    mults_buf = _blob_slice(blob, mult_ref, 8 * n)
    columns = []
    for col in col_descs:
        if not isinstance(col, dict) or not isinstance(
            col.get("values"), list
        ):
            raise WireError(f"bad column descriptor in frame: {col!r}")
        columns.append(
            (_blob_slice(blob, col.get("codes"), 8 * n), col["values"])
        )
    rows, mults = _decode_rows_python(schema.attrs, n, mults_buf, columns)
    try:
        table = dict(zip(rows, mults))
    except TypeError as exc:
        raise WireError(f"unhashable value in frame column: {exc}") from exc
    if len(table) != n:
        raise WireError("duplicate rows in columnar bag frame")
    if sum(mults) != total:
        raise WireError("multiplicity total mismatch in frame")
    return fingerprint.claim(Bag._from_clean(schema, table), fp)


def decode_jobs_frame(header: dict, blob) -> dict:
    """A jobs frame back into the plain batch payload shape, every
    ``{"$bag": i}`` reference replaced by a rebuilt :class:`Bag` holding
    its descriptor's claimed fingerprint — ready for ``parse_jobs``."""
    version = header.get("v")
    if version != VERSION:
        raise WireError(f"unsupported frame header version {version!r}")
    payload = header.get("payload")
    if not isinstance(payload, dict):
        raise WireError("jobs frame missing payload object")
    descriptors = header.get("bags") or []
    if not isinstance(descriptors, list):
        raise WireError("jobs frame bags must be a list")
    bags = [_bag_from_descriptor(desc, blob) for desc in descriptors]

    def convert(obj):
        if isinstance(obj, dict) and set(obj) == {"$bag"}:
            index = obj["$bag"]
            if isinstance(index, bool) or not isinstance(index, int) \
                    or not 0 <= index < len(bags):
                raise WireError(f"bad bag reference in frame: {obj!r}")
            return bags[index]
        return obj

    return _walk_payload(payload, convert)
