"""Reading raw position-report shards.

Wire format: UTF-8 text, one record per line as
``device_id,epoch_s,lat,lon,accuracy_m`` with no quoting; LF, CRLF and a
lone CR each end a line. A ``.gz`` suffix means the shard is
gzip-compressed. A first line whose second field is not an integer is
treated as a vendor header and skipped silently. Bytes that are not UTF-8
make their line malformed; a truncated or corrupt ``.gz`` stream is an IO
error naming the shard. A malformed line's reason is the first that fails:
field_count, empty_device_id, bad_utf8, bad_epoch, bad_number, then the
range rules of ``_RANGE_RULES`` in order. The coordinate domain is geo's.

read_shard streams a shard in binary blocks into numpy columns, applies
the accuracy filter (ACCURACY_MAX_M) and counts the shard's lines as read,
malformed, accepted and rejected for accuracy. A line in the canonical
form (see ``_line_table``) is parsed in bulk and checked column-wise
against ``_RANGE_RULES``; every other line is decoded and handed to
parse_fields, the one per-line validation rule. A block's lines step
together through the grammar's (state, byte) table, one numpy pass per
byte position, for at most ``_WALK_WIDTH`` passes: a line that long or
longer is not canonical, and parse_fields reads it.
"""

from __future__ import annotations

import gzip
import logging
import zlib
from itertools import compress
from typing import BinaryIO, Iterator

import numpy as np

from .geo import fold_lon, lat_ok, lon_ok

log = logging.getLogger(__name__)

# parse_fields' row: (device_id, epoch_s, lat, lon, accuracy_m)
RawReport = tuple[str, int, float, float, float]

# the last epoch whose local date, at a solar offset of up to +12 h, is a
# datetime.date: 9999-12-31T11:59:59Z
MAX_EPOCH = 253_402_257_599

# the range rules, tried in order: (reason, field of a RawReport, test on a value or column)
_RANGE_RULES = (
    ("negative_epoch", 1, lambda epoch: epoch >= 0),
    ("epoch_range", 1, lambda epoch: epoch <= MAX_EPOCH),
    ("lat_range", 2, lat_ok),
    ("lon_range", 3, lon_ok),
    ("bad_accuracy", 4, lambda acc: (0.0 <= acc) & (acc < np.inf)),
)

# shards are read in binary blocks of this size, never whole
BLOCK_BYTES = 256 * 1024


def _line_table() -> np.ndarray:
    """The canonical line as a DFA: table[state << 8 | byte] is the next state.

    A canonical line is five fields that int()/float() read from bytes exactly
    as parse_fields reads them from text, then its LF: a printable-ASCII id
    without a comma, an unsigned epoch of 1 to 18 digits (short enough for
    int64) and three plain decimal or exponent floats. State 0 rejects and 1
    accepts, for good; a line starts in the last state and its LF takes it to
    1 if it is canonical. States are made back to front.
    """
    rows, d = [np.zeros(256, np.intp), np.ones(256, np.intp)], b"0123456789"

    def state(*edges: tuple[bytes, int | None]) -> int:  # a target of None: the new state
        rows.append(np.zeros(256, np.intp))
        for chars, target in edges:
            rows[-1][list(chars)] = len(rows) - 1 if target is None else target
        return len(rows) - 1

    def number(end: bytes, after: int) -> int:
        # -?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?, then end
        exp = state((d, None), (end, after))
        e = state((b"+-", state((d, exp))), (d, exp))
        frac = state((d, None), (b"eE", e), (end, after))  # digits and a point seen
        whole = state((d, None), (b".", frac), (b"eE", e), (end, after))
        point = state((d, frac))  # a leading point
        return state((b"-", state((d, whole), (b".", point))), (d, whole), (b".", point))

    numbers = number(b",", number(b",", number(b"\n", 1)))
    epoch = state((b",", numbers))  # 18 digits seen
    for _ in range(17):
        epoch = state((d, epoch), (b",", numbers))
    ids = bytes(range(0x20, 0x7F)).replace(b",", b"")
    state((ids, state((ids, None), (b",", state((d, epoch))))))
    return np.concatenate(rows)


_LINE_TABLE = _line_table()
_LINE_START = len(_LINE_TABLE) // 256 - 1
# the walk takes at most this many steps, one numpy pass each, so a line of
# this many bytes or more never reaches its LF: it is not canonical
_WALK_WIDTH = 96


def _canonical(lines: list[bytes]) -> list[bool]:
    """Whether each line, which holds no LF, is canonical: the table walk's verdict."""
    lengths = np.fromiter(map(len, lines), np.intp, len(lines))
    # each line is followed by its LF; the padding keeps every step in the buffer
    buf = np.frombuffer(b"\n".join(lines) + b"\n" * _WALK_WIDTH, np.uint8)
    pos = np.cumsum(lengths + 1) - (lengths + 1)
    state = np.full(len(lines), _LINE_START, np.intp)
    for _ in range(min(int(lengths.max(initial=-1)) + 1, _WALK_WIDTH)):
        state = _LINE_TABLE[(state << 8) | buf[pos]]
        pos += 1
    return (state == 1).tolist()


def parse_fields(line: str) -> RawReport | str:
    """Parse one record into a raw tuple, or return the failure reason."""
    parts = line.rstrip("\r\n").split(",")
    if len(parts) != 5:
        return "field_count"
    device_id = parts[0]
    if not device_id:
        return "empty_device_id"
    if not device_id.isascii() and _has_surrogate(device_id):
        return "bad_utf8"
    try:
        epoch = int(parts[1])
    except ValueError:
        return "bad_epoch"
    try:
        lat, lon, acc = map(float, parts[2:])
    except ValueError:
        return "bad_number"
    row = (device_id, epoch, lat, lon, acc)
    for reason, field, test in _RANGE_RULES:
        if not test(row[field]):
            return reason
    return device_id, epoch, lat, fold_lon(lon), acc


def _has_surrogate(text: str) -> bool:
    """True if text holds a lone surrogate: an undecodable byte under surrogateescape."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _looks_like_header(line: str) -> bool:
    parts = line.rstrip("\r\n").split(",")
    if len(parts) < 2:
        return True
    try:
        int(parts[1])
    except ValueError:
        return True
    return False


def _line_blocks(fh: BinaryIO) -> Iterator[list[bytes]]:
    """The shard's data lines, terminators removed, in lists of one block's worth.

    Lines end at LF, CRLF or a lone CR, as in a newline="" text reader; a
    blank line is a line, and so is a last line without a terminator. A
    leading header line is dropped.
    """
    tail = b""
    first = True
    while True:
        block = fh.read(BLOCK_BYTES)
        data = tail + block
        if block:
            # a CR ending the data may be the first half of a CRLF: keep it back
            end = len(data) - 1 if data.endswith(b"\r") else len(data)
            cut = max(data.rfind(b"\n", 0, end), data.rfind(b"\r", 0, end)) + 1
            lines = data[:cut].splitlines()
            tail = data[cut:]
        else:
            lines = data.splitlines()
        if first and lines:
            first = False
            if _looks_like_header(lines[0].decode("utf-8", "surrogateescape")):
                del lines[0]
        if lines:
            yield lines
        if not block:
            return


def _parse_block(lines: list[bytes], ids: dict[str, int], path: str) -> list:
    """Valid rows of one block as [code, epoch, lat, lon, acc] columns: the
    canonical lines' rows, then parse_fields' rows, each in line order."""
    canonical = _canonical(lines)
    fast = list(compress(lines, canonical))
    fields = b",".join(fast).split(b",") if fast else []
    n = len(fast)
    local = {}
    for raw_id in dict.fromkeys(fields[0::5]):
        local[raw_id] = ids.setdefault(raw_id.decode("ascii"), len(ids))
    cols = [  # a RawReport's fields, with a code for the id
        np.fromiter(map(local.__getitem__, fields[0::5]), np.int32, n),
        np.fromiter(map(int, fields[1::5]), np.int64, n),
        *(np.fromiter(map(float, fields[j::5]), np.float64, n) for j in (2, 3, 4)),
    ]
    valid = np.logical_and.reduce([test(cols[field]) for _, field, test in _RANGE_RULES])
    cols = [c[valid] for c in cols]

    slow = []
    for line, ok in zip(lines, canonical):
        if ok:
            continue
        row = parse_fields(line.decode("utf-8", "surrogateescape"))
        if isinstance(row, str):
            log.debug("malformed line in %s: %s", path, row)
            continue
        slow.append((ids.setdefault(row[0], len(ids)),) + row[1:])
    if slow:
        cols = [np.concatenate([c, np.array(column, c.dtype)])
                for c, column in zip(cols, zip(*slow))]
    cols[3] = fold_lon(cols[3])
    return cols


# the accuracy filter: a report whose accuracy_m exceeds this is rejected
ACCURACY_MAX_M = 50.0


def read_shard(path: str) -> tuple[dict, list[str], list[np.ndarray]]:
    """One shard's line counters, in run-report order, its device ids and its
    accepted reports as [code, epoch, lat, lon] columns, each code indexing
    the ids. An id is listed only if it holds an accepted report.

    Rows, and ids in the order lines first name them, come block by block:
    within a block from the canonical lines first, then from the lines
    parse_fields reads, each in line order.

    A leading header line is skipped before any counting. IO and
    decompression failures raise OSError naming the shard; malformed data
    lines, undecodable bytes included, never raise.
    """
    ids: dict[str, int] = {}
    lines_read, blocks = 0, []
    try:
        with gzip.open(path, "rb") if path.endswith(".gz") else open(path, "rb") as fh:
            for lines in _line_blocks(fh):
                lines_read += len(lines)
                blocks.append(_parse_block(lines, ids, path))
    except (EOFError, zlib.error) as e:
        raise OSError(f"{path}: truncated or corrupt gzip data: {e}") from None
    # an empty block gives an empty shard its column types
    code, epoch, lat, lon, acc = (np.concatenate(c)
                                  for c in zip(*(blocks or [_parse_block([], ids, path)])))
    keep = acc <= ACCURACY_MAX_M
    accepted = int(np.count_nonzero(keep))
    counters = {
        "lines_read": lines_read,
        "lines_malformed": lines_read - len(keep),
        "reports_accepted": accepted,
        "reports_rejected_accuracy": len(keep) - accepted,
    }
    # the ids left holding a report, numbered again in their order
    held = np.bincount(code[keep], minlength=len(ids)) > 0
    code = (np.cumsum(held, dtype=np.int32) - 1)[code[keep]]
    return counters, list(compress(ids, held)), [code, epoch[keep], lat[keep], lon[keep]]
