"""Columnar LotusTrace store and vectorized log parser.

:class:`TraceColumns` keeps one trace as a struct-of-arrays table: a
``uint8`` kind code, an interned name id plus a shared name table, and
``int64`` columns for batch id, worker id, pid, start, and duration.
Row order is line order (== record order), so a stable argsort by
``start_ns`` reproduces exactly the ordering the record-based code paths
get from ``sorted(records, key=start_ns)``.

The parser is two-tiered. The *canonical* fast path assumes every line
is exactly ``kind,name,int,int,int,int,int,int\n`` with plain decimal
digits (an optional leading ``-``): one byte scan finds all separators,
a SWAR pass turns little-endian 8-byte windows into integers four/eight
digits at a time, and ``kind,name`` tokens are interned through a
64-bit multiplicative hash that is *verified* byte-for-byte against the
token table, so the result never depends on hash luck. The fast path is
all-or-nothing — any anomaly (a stray byte, a blank line, a field over
18 digits, an unknown kind) makes it bail for the whole buffer — and
the chunked general parser below rereads the input, falling back to
:meth:`TraceRecord.from_line` per suspect line, so skip/raise semantics
and accepted inputs always match the per-line reference parser exactly.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.lotustrace.records import (
    KIND_BATCH_CONSUMED,
    KIND_BATCH_PREPROCESSED,
    KIND_BATCH_WAIT,
    KIND_OP,
    KIND_STRINGS,
    KIND_TO_CODE,
    TraceRecord,
)
from repro.errors import TraceError

PathLike = Union[str, os.PathLike]

#: Numeric codes (``records.KIND_TABLE`` indices) of the kinds the
#: vectorized consumers select by code.
KIND_CODE_OP = KIND_TO_CODE[KIND_OP]
KIND_CODE_PREPROCESSED = KIND_TO_CODE[KIND_BATCH_PREPROCESSED]
KIND_CODE_WAIT = KIND_TO_CODE[KIND_BATCH_WAIT]
KIND_CODE_CONSUMED = KIND_TO_CODE[KIND_BATCH_CONSUMED]

#: Chunk size for the streaming file parser. Small enough that every
#: per-chunk intermediate (separator indices, SWAR words, digit-gather
#: matrices) stays L2/L3-resident — measured ~2x faster than parsing the
#: whole buffer in one pass on a 46 MB / 1M-line trace, with the best
#: time at 512 KB.
DEFAULT_CHUNK_BYTES = 512 * 1024

_COMMA = np.uint8(44)
_NEWLINE = np.uint8(10)
_MINUS = 45
_ZERO = np.uint8(48)

# Kind strings no longer have pairwise-distinct lengths (the three
# 14-byte fault kinds collide with ``batch_consumed``), so the general
# parser matches each candidate kind with one masked byte compare
# against its "<kind>," pattern; a handful of kinds keeps this a short
# fixed loop over the chunk rows still unmatched.
_KIND_LENGTHS = tuple(len(k) for k in KIND_STRINGS)
_KIND_PATTERN_WIDTH = max(_KIND_LENGTHS) + 1
_KIND_PATTERNS = np.zeros((len(KIND_STRINGS), _KIND_PATTERN_WIDTH), dtype=np.uint8)
for _kind, _code in KIND_TO_CODE.items():
    _encoded = (_kind + ",").encode("ascii")
    _KIND_PATTERNS[_code, : len(_encoded)] = np.frombuffer(_encoded, dtype=np.uint8)

#: Name fields wider than this push the row to the slow path (keeps the
#: padded gather bounded on corrupt input).
_MAX_NAME_BYTES = 256

#: Digit-run cap for the vectorized int decode: 18 decimal digits is the
#: widest run guaranteed to fit int64 (19 digits can wrap), so anything
#: longer goes to the per-line fallback, which re-parses with Python
#: ints and surfaces a TraceError if the value cannot be stored.
_MAX_INT_DIGITS = 18
_POW10_ASC = 10 ** np.arange(_MAX_INT_DIGITS, dtype=np.int64)

#: Per-word multipliers for the vectorized name hash (odd powers of the
#: 64-bit golden-ratio constant, so word order matters).
_HASH_MULT = np.empty(_MAX_NAME_BYTES // 8 + 1, dtype=np.uint64)
_mult = 1
for _i in range(_HASH_MULT.shape[0]):
    _HASH_MULT[_i] = _mult
    _mult = (_mult * 0x9E3779B97F4A7C15) % (1 << 64)

class ParseStats:
    """Counters filled in by the hardened parsers (``errors="skip"``)."""

    def __init__(self) -> None:
        self.skipped_lines = 0


class TraceColumns:
    """One trace as columnar arrays plus an interned name table.

    Attributes:
        kind: ``uint8`` ``KIND_CODE_*`` per row.
        name_id: ``int64`` index into :attr:`names` per row.
        batch_id / worker_id / pid / start_ns / duration_ns: ``int64``.
        out_of_order: ``bool``.
        names: tuple of interned name strings.
        skipped_lines: lines dropped by a ``errors="skip"`` parse.

    Rows are in line/record order; ``argsort_start()`` gives the stable
    by-start ordering every record-based consumer uses.
    """

    def __init__(
        self,
        kind: np.ndarray,
        name_id: np.ndarray,
        batch_id: np.ndarray,
        worker_id: np.ndarray,
        pid: np.ndarray,
        start_ns: np.ndarray,
        duration_ns: np.ndarray,
        out_of_order: np.ndarray,
        names: Sequence[str],
        skipped_lines: int = 0,
    ) -> None:
        self.kind = np.ascontiguousarray(kind, dtype=np.uint8)
        self.name_id = np.ascontiguousarray(name_id, dtype=np.int64)
        self.batch_id = np.ascontiguousarray(batch_id, dtype=np.int64)
        self.worker_id = np.ascontiguousarray(worker_id, dtype=np.int64)
        self.pid = np.ascontiguousarray(pid, dtype=np.int64)
        self.start_ns = np.ascontiguousarray(start_ns, dtype=np.int64)
        self.duration_ns = np.ascontiguousarray(duration_ns, dtype=np.int64)
        self.out_of_order = np.ascontiguousarray(out_of_order, dtype=bool)
        self.names: Tuple[str, ...] = tuple(names)
        self.skipped_lines = skipped_lines
        self._order_by_start: Optional[np.ndarray] = None
        n = self.kind.shape[0]
        for column in (
            self.name_id, self.batch_id, self.worker_id, self.pid,
            self.start_ns, self.duration_ns, self.out_of_order,
        ):
            if column.shape != (n,):
                raise TraceError("trace columns have inconsistent lengths")

    def __len__(self) -> int:
        return int(self.kind.shape[0])

    @classmethod
    def empty(cls) -> "TraceColumns":
        zero = np.zeros(0, dtype=np.int64)
        return cls(
            kind=np.zeros(0, dtype=np.uint8), name_id=zero, batch_id=zero,
            worker_id=zero, pid=zero, start_ns=zero, duration_ns=zero,
            out_of_order=np.zeros(0, dtype=bool), names=(),
        )

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "TraceColumns":
        """Columnarize a record list (one pass, names interned)."""
        name_table: Dict[str, int] = {}
        kinds: List[int] = []
        name_ids: List[int] = []
        batches: List[int] = []
        workers: List[int] = []
        pids: List[int] = []
        starts: List[int] = []
        durations: List[int] = []
        ooos: List[bool] = []
        for record in records:
            kinds.append(KIND_TO_CODE[record.kind])
            nid = name_table.setdefault(record.name, len(name_table))
            name_ids.append(nid)
            batches.append(record.batch_id)
            workers.append(record.worker_id)
            pids.append(record.pid)
            starts.append(record.start_ns)
            durations.append(record.duration_ns)
            ooos.append(record.out_of_order)
        return cls(
            kind=np.array(kinds, dtype=np.uint8),
            name_id=np.array(name_ids, dtype=np.int64),
            batch_id=np.array(batches, dtype=np.int64),
            worker_id=np.array(workers, dtype=np.int64),
            pid=np.array(pids, dtype=np.int64),
            start_ns=np.array(starts, dtype=np.int64),
            duration_ns=np.array(durations, dtype=np.int64),
            out_of_order=np.array(ooos, dtype=bool),
            names=tuple(name_table),
        )

    def record_at(self, row: int) -> TraceRecord:
        """Materialize one row as a :class:`TraceRecord`."""
        return TraceRecord(
            kind=KIND_STRINGS[int(self.kind[row])],
            name=self.names[int(self.name_id[row])],
            batch_id=int(self.batch_id[row]),
            worker_id=int(self.worker_id[row]),
            pid=int(self.pid[row]),
            start_ns=int(self.start_ns[row]),
            duration_ns=int(self.duration_ns[row]),
            out_of_order=bool(self.out_of_order[row]),
        )

    def to_records(self) -> List[TraceRecord]:
        """Materialize every row, in row (= line) order."""
        names = self.names
        return [
            TraceRecord(
                kind=KIND_STRINGS[k], name=names[nid], batch_id=b,
                worker_id=w, pid=p, start_ns=s, duration_ns=d,
                out_of_order=o,
            )
            for k, nid, b, w, p, s, d, o in zip(
                self.kind.tolist(), self.name_id.tolist(),
                self.batch_id.tolist(), self.worker_id.tolist(),
                self.pid.tolist(), self.start_ns.tolist(),
                self.duration_ns.tolist(), self.out_of_order.tolist(),
            )
        ]

    def argsort_start(self) -> np.ndarray:
        """Stable row order by ``start_ns`` (cached).

        Matches ``sorted(records, key=lambda r: r.start_ns)`` — ties keep
        line order — which is the draw order the span/Chrome exporters
        rely on.
        """
        if self._order_by_start is None:
            self._order_by_start = np.argsort(self.start_ns, kind="stable")
        return self._order_by_start

    def end_ns(self) -> np.ndarray:
        return self.start_ns + self.duration_ns


def _decode_int_fields(
    buf: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    bad: np.ndarray,
) -> np.ndarray:
    """Vectorized int64 parse of every CSV integer field in one pass.

    ``starts``/``ends`` are ``(fields, rows)`` byte bounds (end
    exclusive). All tokens are decoded together: the digit bytes of
    every field are gathered into one flat array, each byte is scaled by
    ``10**(distance to its token's end)``, and per-token sums come from
    a single ``add.reduceat``. Rows with an empty field, a non-digit
    byte, or more than 19 digits in any field are flagged in ``bad``
    (and later re-parsed by the per-line fallback).
    """
    n_fields, n = starts.shape
    if n == 0:
        return np.zeros((n_fields, 0), dtype=np.int64)
    s = starts.ravel()
    e = ends.ravel()
    neg = buf[np.minimum(s, buf.shape[0] - 1)] == _MINUS
    digit_start = s + neg
    lens = e - digit_start
    bad_token = (lens <= 0) | (lens > _MAX_INT_DIGITS)
    lens = np.clip(lens, 0, None)
    offsets = np.empty(lens.shape[0] + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(lens, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        values = np.zeros(s.shape, dtype=np.int64)
    else:
        # Flat positions of every digit byte, token by token.
        pos = np.arange(total, dtype=np.int64)
        pos += np.repeat(digit_start - offsets[:-1], lens)
        digits = buf[pos] - _ZERO  # uint8 wrap; >9 means non-digit
        exponent = np.repeat(e, lens) - 1 - pos
        scaled = digits.astype(np.int64) * _POW10_ASC[
            np.minimum(exponent, _MAX_INT_DIGITS - 1)
        ]
        reduce_at = np.minimum(offsets[:-1], total - 1)
        values = np.add.reduceat(scaled, reduce_at)
        bad_token |= np.maximum.reduceat(digits, reduce_at) > 9
    np.negative(values, out=values, where=neg)
    np.logical_or(bad, bad_token.reshape(n_fields, n).any(axis=0), out=bad)
    return values.reshape(n_fields, n)


def _intern_names(
    buf: np.ndarray, starts: np.ndarray, lens: np.ndarray
) -> Tuple[np.ndarray, List[str]]:
    """Intern NUL-padded name fields into (row ids, name table).

    Names are grouped by a 64-bit multiplicative hash over their padded
    bytes — an integer ``np.unique``, which is far cheaper than sorting
    fixed-width byte strings. The hash is then *verified*: every row's
    padded bytes are compared against its group representative, and on
    any mismatch (a genuine 64-bit collision) the exact string-sort
    interning runs instead, so the result never depends on hash luck.
    """
    width = max(int(lens.max(initial=0)), 1)
    offsets = np.arange(width, dtype=np.int64)
    padded = buf[np.minimum(starts[:, None] + offsets, buf.shape[0] - 1)]
    padded *= offsets < lens[:, None]
    n_words = -(-width // 8)
    if width % 8:
        words = np.zeros((padded.shape[0], n_words * 8), dtype=np.uint8)
        words[:, :width] = padded
    else:
        words = np.ascontiguousarray(padded)
    hashes = (
        words.view(np.uint64) * _HASH_MULT[:n_words]
    ).sum(axis=1, dtype=np.uint64)
    _uniq, first, inverse = np.unique(
        hashes, return_index=True, return_inverse=True
    )
    if bool((padded == padded[first[inverse]]).all()):
        table = np.ascontiguousarray(padded[first]).view(f"S{width}").ravel()
        return (
            inverse.astype(np.int64, copy=False),
            [entry.decode("utf-8") for entry in table.tolist()],
        )
    uniq, inverse = np.unique(
        np.ascontiguousarray(padded).view(f"S{width}").ravel(),
        return_inverse=True,
    )
    return (
        inverse.astype(np.int64, copy=False),
        [entry.decode("utf-8") for entry in uniq.tolist()],
    )


# --- canonical fast path -------------------------------------------------
#
# SWAR decimal decode: a little-endian 8-byte load at (end - 8) puts the
# last digit in the high byte; masking the junk low bytes to '0' and
# folding pairs/quads/octets with three multiply-shifts yields the 8-digit
# value in ~6 elementwise ops, with no per-digit gather. Wider fields use
# two or three overlapping words (<= 18 digits, see _MAX_INT_DIGITS).

_U64 = np.uint64
_U32 = np.uint32
_SWAR_ZEROS = _U64(0x3030303030303030)
_SWAR_LOW_NIBBLES = _U64(0x0F0F0F0F0F0F0F0F)
_SWAR_HIGH_NIBBLES = _U64(0xF0F0F0F0F0F0F0F0)
_SWAR_SIX = _U64(0x0606060606060606)
_SWAR_M1, _SWAR_K1 = _U64(2561), _U64(0x00FF00FF00FF00FF)
_SWAR_M2, _SWAR_K2 = _U64(6553601), _U64(0x0000FFFF0000FFFF)
_SWAR_M3 = _U64(42949672960001)
_SWAR_ZEROS32 = _U32(0x30303030)
_SWAR_LOW_NIBBLES32 = _U32(0x0F0F0F0F)
_SWAR_HIGH_NIBBLES32 = _U32(0xF0F0F0F0)
_SWAR_SIX32 = _U32(0x06060606)
_SWAR_M1_32, _SWAR_K1_32 = _U32(2561), _U32(0x00FF00FF)
_SWAR_M2_32 = _U32(6553601)
_ALL_ONES = 0xFFFFFFFFFFFFFFFF

#: ``_KEEP_HIGH[k]`` keeps the k high bytes of a word (the last k chars
#: of a right-aligned little-endian load); ``_FILL_LOW_ZERO[k]`` puts
#: ASCII '0' in the bytes it dropped. ``_KEEP_LOW[k]`` keeps the first k
#: chars of a left-aligned load. Tiny LUTs beat recomputing the masks.
_KEEP_HIGH = np.array(
    [
        ((_ALL_ONES >> (8 * (8 - k))) << (8 * (8 - k))) & _ALL_ONES
        if k < 8
        else _ALL_ONES
        for k in range(9)
    ],
    dtype=_U64,
)
_FILL_LOW_ZERO = np.array(
    [0x3030303030303030 & (~int(m) & _ALL_ONES) for m in _KEEP_HIGH], dtype=_U64
)
_KEEP_LOW = np.array(
    [(_ALL_ONES >> (8 * (8 - k))) if k < 8 else _ALL_ONES for k in range(9)],
    dtype=_U64,
)
_KEEP_HIGH32 = np.array(
    [
        ((0xFFFFFFFF >> (8 * (4 - k))) << (8 * (4 - k))) & 0xFFFFFFFF
        if k < 4
        else 0xFFFFFFFF
        for k in range(5)
    ],
    dtype=_U32,
)
_FILL_LOW_ZERO32 = np.array(
    [0x30303030 & (~int(m) & 0xFFFFFFFF) for m in _KEEP_HIGH32], dtype=_U32
)

#: Multipliers mixing the three token words into one 64-bit hash.
_TOKEN_H1 = _U64(0x9E3779B97F4A7C15)
_TOKEN_H2 = _U64(0xC2B2AE3D27D4EB4F)
_TOKEN_H3 = _U64(0x165667B19E3779F9)

#: ``kind,name`` tokens longer than this use the general parser (three
#: masked words cover at most 24 token bytes injectively).
_MAX_TOKEN_BYTES = 24

#: Token-table cap: a canonical trace has a handful of distinct
#: ``kind,name`` pairs; past this the O(tokens x rows) match loop stops
#: paying for itself and the general parser's sort-based interning wins.
_MAX_CANONICAL_TOKENS = 64


def _swar8(word: np.ndarray) -> np.ndarray:
    """8 ASCII digits in a little-endian u64 -> their integer value."""
    t = word & _SWAR_LOW_NIBBLES
    t = (t * _SWAR_M1) >> _U64(8) & _SWAR_K1
    t = (t * _SWAR_M2) >> _U64(16) & _SWAR_K2
    return (t * _SWAR_M3) >> _U64(32)


def _swar4(word: np.ndarray) -> np.ndarray:
    """4 ASCII digits in a little-endian u32 -> their integer value."""
    t = word & _SWAR_LOW_NIBBLES32
    t = (t * _SWAR_M1_32) >> _U32(8) & _SWAR_K1_32
    return (t * _SWAR_M2_32) >> _U32(16)


class _TokenTable:
    """Interned ``kind,name`` tokens shared across canonical chunks.

    Tokens are matched by 64-bit hash, then *verified*: every row's
    (h1, h2, h3, len) word quad is compared against its table entry, so
    a hash collision is detected (and the fast path abandoned) rather
    than silently merging two names.
    """

    def __init__(self) -> None:
        self.hashes: List[int] = []
        self.quads: List[Tuple[int, int, int, int]] = []
        self.quad_arr = np.zeros((0, 4), dtype=_U64)
        self.tokens: List[bytes] = []


class _CanonicalChunk:
    """One canonical chunk: token-table row ids + six int64 columns."""

    __slots__ = ("token_id", "fields")

    def __init__(self, token_id: np.ndarray, fields: List[np.ndarray]) -> None:
        self.token_id = token_id
        self.fields = fields


def _parse_canonical_chunk(
    data: bytes, table: _TokenTable
) -> Optional[_CanonicalChunk]:
    """Decode one newline-terminated chunk, or ``None`` if non-canonical."""
    if len(data) < 16:  # shortest canonical line: "op,,0,0,0,0,0,0\n"
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    # One compare finds every comma (44) and newline (10); any *other*
    # byte <= 44 in the data (space, '+', '\r', NUL...) lands in ``sep``
    # too and fails the exact comma/newline check below -> fallback.
    sep = np.flatnonzero(buf <= _COMMA)
    if sep.size % 8:
        return None
    n = sep.size // 8
    sep_rows = sep.reshape(n, 8)
    sep_bytes = buf[sep_rows]
    if not (
        (sep_bytes[:, 7] == _NEWLINE).all() and (sep_bytes[:, :7] == _COMMA).all()
    ):
        return None
    pos = np.ascontiguousarray(sep_rows.T)  # (8, n), each row contiguous
    line_end = pos[7]
    line_start = np.empty_like(line_end)
    line_start[0] = 0
    line_start[1:] = line_end[:-1] + 1
    # Unaligned strided views: an 8-byte (or 4-byte) little-endian word
    # starting at any byte offset is a single fancy-index away.
    words8 = np.ndarray(
        shape=(buf.size - 7,), dtype="<u8", buffer=data, strides=(1,)
    )
    words4 = np.ndarray(
        shape=(buf.size - 3,), dtype="<u4", buffer=data, strides=(1,)
    )

    def word_at(idx: np.ndarray, words: np.ndarray) -> np.ndarray:
        if idx[0] < 0:  # offsets grow with the row, only the head can clip
            idx = np.maximum(idx, 0)
        return words[idx]

    bad = np.zeros(n, dtype=bool)
    fields: List[np.ndarray] = []
    for f in range(6):
        start = pos[f + 1] + 1
        end = pos[f + 2] if f < 5 else line_end
        neg = buf[start] == _MINUS
        any_neg = bool(neg.any())
        digit_start = start + neg if any_neg else start
        lens = end - digit_start
        bad |= lens <= 0
        width = int(lens.max(initial=0))
        if width > _MAX_INT_DIGITS:
            return None
        if width == 1:
            digit = buf[digit_start]
            bad |= (digit < _ZERO) | (digit > 57)
            value = digit.astype(np.int64) - 48
        elif width <= 4:
            w0 = word_at(end - 4, words4)
            keep = _KEEP_HIGH32[lens]
            w0 = (w0 & keep) | _FILL_LOW_ZERO32[lens]
            bad |= ((w0 | (w0 + _SWAR_SIX32)) & _SWAR_HIGH_NIBBLES32) != _SWAR_ZEROS32
            value = _swar4(w0).astype(np.int64)
        else:
            w0 = word_at(end - 8, words8)
            l0 = np.minimum(lens, 8) if width > 8 else lens
            w0 = (w0 & _KEEP_HIGH[l0]) | _FILL_LOW_ZERO[l0]
            bad |= ((w0 | (w0 + _SWAR_SIX)) & _SWAR_HIGH_NIBBLES) != _SWAR_ZEROS
            acc = _swar8(w0)
            if width > 8:
                l1 = np.clip(lens - 8, 0, 8)
                w1 = word_at(end - 16, words8)
                w1 = (w1 & _KEEP_HIGH[l1]) | _FILL_LOW_ZERO[l1]
                bad |= ((w1 | (w1 + _SWAR_SIX)) & _SWAR_HIGH_NIBBLES) != _SWAR_ZEROS
                acc = acc + _swar8(w1) * _U64(10**8)
                if width > 16:
                    l2 = np.clip(lens - 16, 0, 8)
                    w2 = word_at(end - 24, words8)
                    w2 = (w2 & _KEEP_HIGH[l2]) | _FILL_LOW_ZERO[l2]
                    bad |= (
                        (w2 | (w2 + _SWAR_SIX)) & _SWAR_HIGH_NIBBLES
                    ) != _SWAR_ZEROS
                    acc = acc + _swar8(w2) * _U64(10**16)
            value = acc.astype(np.int64)
        if any_neg:
            np.negative(value, out=value, where=neg)
        fields.append(value)
    if bad.any():
        return None
    # duration_ns < 0 is a TraceError in the record model; let the
    # general parser produce the exact error/skip.
    if fields[4].size and int(fields[4].min()) < 0:
        return None

    # kind,name token: first 8 / last 8 / middle 8 bytes (junk masked
    # out) plus the length injectively cover tokens up to 24 bytes.
    name_comma = pos[1]
    token_len = name_comma - line_start
    t_max = int(token_len.max(initial=0))
    if t_max > _MAX_TOKEN_BYTES:
        return None
    if int(token_len.min(initial=8)) >= 8:
        h1 = word_at(line_start, words8)
        h2 = word_at(name_comma - 8, words8)
    else:
        head = np.minimum(token_len, 8)
        h1 = word_at(line_start, words8) & _KEEP_LOW[head]
        h2 = word_at(name_comma - 8, words8) & _KEEP_HIGH[head]
    if t_max > 8:
        mid = np.clip(token_len - 8, 0, 8)
        h3 = word_at(line_start + 8, words8) & _KEEP_LOW[mid]
    else:
        h3 = np.zeros(n, dtype=_U64)
    token_len_u = token_len.astype(_U64)
    token_hash = h1 * _TOKEN_H1 + h2 * _TOKEN_H2 + h3 * _TOKEN_H3 + token_len_u

    token_id = np.full(n, -1, dtype=np.int64)
    for k, known in enumerate(table.hashes):
        token_id[token_hash == _U64(known)] = k
    if (token_id < 0).any():
        unknown_rows = np.flatnonzero(token_id < 0)
        _, first = np.unique(token_hash[unknown_rows], return_index=True)
        for i in np.sort(unknown_rows[first]).tolist():  # first-seen order
            table.hashes.append(int(token_hash[i]))
            table.quads.append((int(h1[i]), int(h2[i]), int(h3[i]), int(token_len[i])))
            table.tokens.append(data[line_start[i]: name_comma[i]])
            if len(table.hashes) > _MAX_CANONICAL_TOKENS:
                return None
        table.quad_arr = np.array(table.quads, dtype=_U64)
        for k, known in enumerate(table.hashes):
            match = token_hash[unknown_rows] == _U64(known)
            if match.any():
                token_id[unknown_rows[match]] = k
        if (token_id < 0).any():  # unreachable, defensive
            return None
    quads = table.quad_arr
    if not (
        (h1 == quads[token_id, 0]).all()
        and (h2 == quads[token_id, 1]).all()
        and (h3 == quads[token_id, 2]).all()
        and (token_len_u == quads[token_id, 3]).all()
    ):
        return None  # 64-bit hash collision: do not trust the mapping
    return _CanonicalChunk(token_id, fields)


def _parse_canonical(
    data: bytes, chunk_bytes: int
) -> Optional[TraceColumns]:
    """All-or-nothing canonical parse of a whole trace buffer.

    Returns ``None`` on the first anomaly; the caller then reruns the
    general chunked parser, which reproduces the reference semantics
    (including error messages and skip counting) line by line.
    """
    table = _TokenTable()
    chunks: List[_CanonicalChunk] = []
    offset = 0
    total = len(data)
    while offset < total:
        cut = min(offset + max(chunk_bytes, 16), total)
        if cut < total:
            cut = data.index(b"\n", cut - 1) + 1
        chunk = _parse_canonical_chunk(data[offset:cut], table)
        if chunk is None:
            return None
        chunks.append(chunk)
        offset = cut

    # Token -> (kind code, interned name id). The token has exactly one
    # comma (the canonical structure guarantees it), so split is exact.
    kind_for_token = np.zeros(len(table.tokens), dtype=np.uint8)
    name_for_token = np.zeros(len(table.tokens), dtype=np.int64)
    name_table: Dict[str, int] = {}
    for k, token in enumerate(table.tokens):
        kind_bytes, _, name_bytes = token.partition(b",")
        code = KIND_TO_CODE.get(kind_bytes.decode("ascii", errors="replace"))
        if code is None:
            return None
        try:
            name = name_bytes.decode("utf-8")
        except UnicodeDecodeError:
            return None
        kind_for_token[k] = code
        name_for_token[k] = name_table.setdefault(name, len(name_table))

    token_id = (
        np.concatenate([c.token_id for c in chunks])
        if chunks
        else np.zeros(0, dtype=np.int64)
    )
    merged = [
        np.concatenate([c.fields[f] for c in chunks])
        if chunks
        else np.zeros(0, dtype=np.int64)
        for f in range(6)
    ]
    return TraceColumns(
        kind=kind_for_token[token_id],
        name_id=name_for_token[token_id],
        batch_id=merged[0],
        worker_id=merged[1],
        pid=merged[2],
        start_ns=merged[3],
        duration_ns=merged[4],
        out_of_order=merged[5] != 0,
        names=tuple(name_table),
    )


class _Chunk:
    """Decoded columns for one chunk, pre name-table merge."""

    __slots__ = (
        "kind", "name_id", "batch_id", "worker_id", "pid", "start_ns",
        "duration_ns", "out_of_order", "names", "bad_lines",
    )

    def __init__(self, n: int) -> None:
        self.kind = np.zeros(n, dtype=np.uint8)
        self.name_id = np.zeros(n, dtype=np.int64)
        self.batch_id = np.zeros(n, dtype=np.int64)
        self.worker_id = np.zeros(n, dtype=np.int64)
        self.pid = np.zeros(n, dtype=np.int64)
        self.start_ns = np.zeros(n, dtype=np.int64)
        self.duration_ns = np.zeros(n, dtype=np.int64)
        self.out_of_order = np.zeros(n, dtype=bool)
        self.names: List[str] = []
        # (insert position among this chunk's good rows, raw line text)
        self.bad_lines: List[Tuple[int, str]] = []


def _parse_chunk(data: bytes) -> _Chunk:
    """Decode one newline-terminated chunk of trace bytes into columns."""
    buf = np.frombuffer(data, dtype=np.uint8)
    separators = np.flatnonzero((buf == _COMMA) | (buf == _NEWLINE))
    newline_sep = np.flatnonzero(buf[separators] == _NEWLINE)
    line_end = separators[newline_sep]
    line_start = np.empty_like(line_end)
    if line_end.size:
        line_start[0] = 0
        line_start[1:] = line_end[:-1] + 1

    # A canonical line contributes exactly 8 separators: 7 commas + '\n'.
    seps_per_line = np.diff(newline_sep, prepend=-1)
    good = seps_per_line == 8
    blank = line_end == line_start  # consecutive newlines: silently dropped
    suspect = ~good & ~blank
    if (buf == 0).any():
        # NUL bytes would alias the name-table padding; route any line
        # containing one through the per-line fallback instead.
        nul_lines = np.searchsorted(line_end, np.flatnonzero(buf == 0), side="left")
        has_nul = np.zeros(line_end.shape, dtype=bool)
        has_nul[np.minimum(nul_lines, line_end.size - 1)] = True
        suspect |= has_nul
        good &= ~has_nul

    good_idx = np.flatnonzero(good)
    n = good_idx.size
    commas = (
        separators[newline_sep[good_idx][:, None] + np.arange(-7, 0)]
        if n
        else np.zeros((0, 7), dtype=np.int64)
    )
    ls = line_start[good_idx]
    le = line_end[good_idx]
    bad = np.zeros(n, dtype=bool)

    # kind: per-candidate masked byte compare against "<kind>," (kind
    # lengths collide, so each row may be tested against every kind of
    # its length — at most a few comparisons per row).
    kind_len = commas[:, 0] - ls if n else np.zeros(0, dtype=np.int64)
    code = np.full(n, -1, dtype=np.int8)
    if n:
        offsets = np.arange(_KIND_PATTERN_WIDTH, dtype=np.int64)
        kind_bytes = buf[
            np.minimum(ls[:, None] + offsets, buf.shape[0] - 1)
        ]
        for cand, cand_len in enumerate(_KIND_LENGTHS):
            rows = np.flatnonzero((kind_len == cand_len) & (code < 0))
            if rows.size == 0:
                continue
            width = cand_len + 1  # include the trailing comma
            hit = (
                kind_bytes[rows, :width] == _KIND_PATTERNS[cand, :width]
            ).all(axis=1)
            code[rows[hit]] = cand
    np.logical_or(bad, code < 0, out=bad)
    safe_code = np.maximum(code, 0)

    int_starts = np.empty((6, n), dtype=np.int64)
    int_ends = np.empty((6, n), dtype=np.int64)
    if n:
        int_starts[:] = commas[:, 1:7].T + 1
        int_ends[:5] = commas[:, 2:7].T
        int_ends[5] = le
    batch_id, worker_id, pid, start_ns, duration_ns, ooo = _decode_int_fields(
        buf, int_starts, int_ends, bad
    )
    # The record model rejects negative durations; match it by sending
    # such rows through the fallback (TraceError there).
    np.logical_or(bad, duration_ns < 0, out=bad)

    # name: padded gather + unique over fixed-width byte strings.
    name_start = commas[:, 0] + 1 if n else np.zeros(0, dtype=np.int64)
    name_len = commas[:, 1] - name_start if n else np.zeros(0, dtype=np.int64)
    if n and int(name_len.max(initial=0)) > _MAX_NAME_BYTES:
        np.logical_or(bad, name_len > _MAX_NAME_BYTES, out=bad)

    ok = ~bad
    ok_idx = np.flatnonzero(ok)
    chunk = _Chunk(ok_idx.size)
    if ok_idx.size:
        chunk.kind = safe_code[ok_idx].astype(np.uint8)
        chunk.batch_id = batch_id[ok_idx]
        chunk.worker_id = worker_id[ok_idx]
        chunk.pid = pid[ok_idx]
        chunk.start_ns = start_ns[ok_idx]
        chunk.duration_ns = duration_ns[ok_idx]
        chunk.out_of_order = ooo[ok_idx] != 0
        ns, nl = name_start[ok_idx], name_len[ok_idx]
        chunk.name_id, chunk.names = _intern_names(buf, ns, nl)

    # Anything the vectorized passes rejected goes to the per-line
    # fallback, tagged with its insert position among this chunk's rows.
    reject_lines = np.flatnonzero(suspect)
    if n:
        reject_rows = good_idx[np.flatnonzero(bad)]
        reject_lines = np.union1d(reject_lines, reject_rows)
    if reject_lines.size:
        accepted_lines = good_idx[ok_idx] if n else np.zeros(0, dtype=np.int64)
        positions = np.searchsorted(accepted_lines, reject_lines, side="left")
        for pos, li in zip(positions.tolist(), reject_lines.tolist()):
            text = data[int(line_start[li]): int(line_end[li])].decode(
                "utf-8", errors="replace"
            )
            chunk.bad_lines.append((pos, text))
    return chunk


#: (chunk column name, output dtype, TraceRecord accessor for repairs)
_FIELD_SPECS = (
    ("kind", np.uint8, lambda r, nid: KIND_TO_CODE[r.kind]),
    ("name_id", np.int64, lambda r, nid: nid[r.name]),
    ("batch_id", np.int64, lambda r, nid: r.batch_id),
    ("worker_id", np.int64, lambda r, nid: r.worker_id),
    ("pid", np.int64, lambda r, nid: r.pid),
    ("start_ns", np.int64, lambda r, nid: r.start_ns),
    ("duration_ns", np.int64, lambda r, nid: r.duration_ns),
    ("out_of_order", bool, lambda r, nid: r.out_of_order),
)


def _assemble(
    chunks: List[_Chunk], errors: str, stats: Optional[ParseStats]
) -> TraceColumns:
    """Merge chunk columns, repair fallback lines, intern names globally."""
    if errors not in ("raise", "skip"):
        raise TraceError(f"unknown errors mode: {errors!r}")
    name_table: Dict[str, int] = {}
    skipped = 0
    parts: Dict[str, List[np.ndarray]] = {f: [] for f, _, _ in _FIELD_SPECS}
    for chunk in chunks:
        lut = np.array(
            [name_table.setdefault(name, len(name_table)) for name in chunk.names],
            dtype=np.int64,
        )
        repaired: List[Tuple[int, TraceRecord]] = []
        for pos, text in chunk.bad_lines:
            if not text.strip():
                continue  # whitespace-only line: always silently dropped
            try:
                repaired.append((pos, TraceRecord.from_line(text)))
            except TraceError:
                if errors == "raise":
                    raise
                skipped += 1
        for _, rec in repaired:
            name_table.setdefault(rec.name, len(name_table))
        for field, dtype, accessor in _FIELD_SPECS:
            arr = getattr(chunk, field)
            if field == "name_id" and arr.size:
                arr = lut[arr]
            if repaired:
                try:
                    arr = np.insert(
                        arr,
                        [pos for pos, _ in repaired],
                        [accessor(rec, name_table) for _, rec in repaired],
                    ).astype(dtype, copy=False)
                except OverflowError:
                    # A per-line repair produced a Python int outside
                    # int64 — representable by TraceRecord but not by
                    # the columnar store.
                    raise TraceError(
                        f"trace field {field!r} overflows the columnar "
                        "int64 store; use analysis_engine('records')"
                    )
            parts[field].append(arr)

    columns = {
        field: (
            np.concatenate(parts[field])
            if parts[field]
            else np.zeros(0, dtype=dtype)
        )
        for field, dtype, _ in _FIELD_SPECS
    }
    if stats is not None:
        stats.skipped_lines += skipped
    return TraceColumns(names=tuple(name_table), skipped_lines=skipped, **columns)


def parse_trace_bytes(
    data: bytes,
    errors: str = "raise",
    stats: Optional[ParseStats] = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> TraceColumns:
    """Parse raw trace-log bytes into :class:`TraceColumns`.

    ``errors="raise"`` (default) propagates :class:`TraceError` on the
    first malformed line, exactly like the per-line reference parser;
    ``errors="skip"`` drops malformed lines and counts them in
    ``skipped_lines`` (and in ``stats`` when given) — the hardened mode
    for logs truncated by a killed worker process.
    """
    if not data:
        cols = TraceColumns.empty()
        return cols
    if not data.endswith(b"\n"):
        data = data + b"\n"
    fast = _parse_canonical(data, chunk_bytes)
    if fast is not None:
        return fast
    chunks: List[_Chunk] = []
    offset = 0
    total = len(data)
    while offset < total:
        cut = min(offset + max(chunk_bytes, 1), total)
        if cut < total:
            cut = data.index(b"\n", cut - 1) + 1
        chunks.append(_parse_chunk(data[offset:cut]))
        offset = cut
    return _assemble(chunks, errors, stats)


def parse_trace_file_columns(
    path: PathLike,
    errors: str = "raise",
    stats: Optional[ParseStats] = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> TraceColumns:
    """Read and vectorized-parse a LotusTrace log into columns."""
    with open(path, "rb") as handle:
        data = handle.read()
    return parse_trace_bytes(data, errors=errors, stats=stats, chunk_bytes=chunk_bytes)
