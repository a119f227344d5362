"""Reading raw position-report shards.

Wire format: UTF-8 text, one record per line as
``device_id,epoch_s,lat,lon,accuracy_m`` with no quoting; LF, CRLF and a
lone CR each end a line. A ``.gz`` suffix means the shard is
gzip-compressed. A UTF-8 byte order mark opening the shard is dropped,
then a first line whose second field is not an integer is treated as a
vendor header and skipped silently. Bytes that are not UTF-8 make their
line malformed; a truncated or corrupt ``.gz`` stream is an IO error
naming the shard. A malformed line's reason is the first that fails:
field_count, empty_device_id, bad_utf8, bad_epoch, bad_number, then the
range rules of ``_RANGE_RULES`` in order. The coordinate domain is geo's.

read_shard streams a shard into numpy columns in binary blocks, each
read on to its next LF (a shard whose lines all end in a lone CR is one
block), and counts its lines as read, malformed, accepted and rejected
for accuracy; each malformed line is logged at DEBUG with its reason. A
block applies the accuracy filter (ACCURACY_MAX_M), where accuracy
stops, and numbers a device id at its first accepted report. A canonical
line is parsed in bulk and checked column-wise against ``_RANGE_RULES``;
every other line is decoded and handed to parse_fields, the one per-line
validation rule. A line is canonical when it is ASCII and has four
commas, a non-empty id, an epoch of 1 to 18 ASCII digits (so it fits
int64) and three numbers float() reads: on ASCII, int() and float() read
bytes exactly as parse_fields reads the same text, so the bulk route
states no grammar of its own.
"""

from __future__ import annotations

import codecs
import gzip
import logging
import zlib
from itertools import compress, repeat

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

# the accuracy filter: a report whose accuracy_m exceeds this is rejected
ACCURACY_MAX_M = 50.0

# shards are read in binary blocks of this size, each run on to its next LF; a shard
# whose lines all end in a lone CR has none and is read in one piece
BLOCK_BYTES = 256 * 1024


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


def _readable(*numbers: bytes) -> bool:
    """Whether float() reads each of a line's numbers."""
    try:
        for number in numbers:
            float(number)
    except ValueError:
        return False
    return True


def _parse_block(lines: list[bytes], ids: dict[bytes, int], path: str) -> tuple[list, int]:
    """One block's accepted reports as [code, epoch, lat, lon] columns, the canonical
    lines' then parse_fields', each in line order, and its count of valid rows. An id
    gets its code in ids when its first accepted report is read."""
    n = len(lines)
    canonical = np.fromiter(map(bytes.count, lines, repeat(b",")), np.intp, n) == 4
    if not b"".join(lines).isascii():
        canonical &= np.fromiter(map(bytes.isascii, lines), bool, n)
    fields = b",".join(compress(lines, canonical)).split(b",") if canonical.any() else []
    m = len(fields) // 5
    keep = (np.fromiter(map(bool, fields[0::5]), bool, m)
            & (np.fromiter(map(len, fields[1::5]), np.intp, m) <= 18)
            & np.fromiter(map(bytes.isdigit, fields[1::5]), bool, m)).tolist()

    while True:
        try:
            numbers = [np.fromiter(map(float, compress(fields[j::5], keep)), np.float64)
                       for j in (2, 3, 4)]
            break
        except ValueError:  # a line whose number float() cannot read goes to parse_fields alone
            readable = map(_readable, fields[2::5], fields[3::5], fields[4::5])
            keep = [ok and r for ok, r in zip(keep, readable)]
    canonical[canonical] = keep

    cols = [list(compress(fields[0::5], keep)),  # a RawReport's fields
            np.fromiter(map(int, compress(fields[1::5], keep)), np.int64), *numbers]
    tests = [test(cols[field]) for _, field, test in _RANGE_RULES]
    valid = np.logical_and.reduce(tests)
    if log.isEnabledFor(logging.DEBUG):
        first_failed = np.argmin(tests, axis=0)
        for row in np.flatnonzero(~valid):
            log.debug("malformed line in %s: %s", path, _RANGE_RULES[first_failed[row]][0])
    names = list(compress(cols[0], valid.tolist()))
    cols = [c[valid] for c in cols[1:]]

    slow = []
    for line in compress(lines, (~canonical).tolist()):
        row = parse_fields(line.decode("utf-8", "surrogateescape"))
        if isinstance(row, str):
            log.debug("malformed line in %s: %s", path, row)
            continue
        names.append(row[0].encode())  # exact: an id that is not UTF-8 is bad_utf8
        slow.append(row[1:])
    if slow:
        cols = [np.concatenate([c, np.array(column, c.dtype)])
                for c, column in zip(cols, zip(*slow))]
    # the accuracy filter; an id gets the next code at its first accepted report
    accepted = cols[3] <= ACCURACY_MAX_M
    names = list(compress(names, accepted.tolist()))
    for name in dict.fromkeys(names):
        ids.setdefault(name, len(ids))
    code = np.fromiter(map(ids.__getitem__, names), np.int32, len(names))
    epoch, lat, lon = (c[accepted] for c in cols[:3])
    return [code, epoch, lat, fold_lon(lon)], len(accepted)


def read_shard(path: str) -> tuple[dict, list[str], list[np.ndarray]]:
    """One shard's line counters, in run-report order, its device ids and its
    accepted reports as [code, epoch, lat, lon] columns (accuracy stops at
    the block), each code indexing the ids. An id is listed only if it holds
    an accepted report.

    Rows, and ids in the order their first accepted report is read, come
    block by block (BLOCK_BYTES read on to the next LF): within a block from
    the canonical lines first, then from the lines parse_fields reads, each
    in line order.

    A leading UTF-8 BOM, then a leading header line, are skipped before
    any counting. IO and decompression failures raise OSError naming the
    shard; malformed data lines, undecodable bytes included, never raise.
    """
    ids: dict[bytes, int] = {}
    lines_read, blocks = 0, []
    try:
        with gzip.open(path, "rb") if path.endswith(".gz") else open(path, "rb") as fh:
            # each block runs on to its next LF, so no line or CRLF is cut in two
            while block := fh.read(BLOCK_BYTES) + fh.readline():
                lines = (block if blocks else block.removeprefix(codecs.BOM_UTF8)).splitlines()
                if not blocks and lines and _looks_like_header(lines[0].decode("utf-8", "surrogateescape")):
                    del lines[0]
                lines_read += len(lines)
                blocks.append(_parse_block(lines, ids, path))
    except (EOFError, zlib.error, gzip.BadGzipFile) as e:
        raise OSError(f"{path}: truncated or corrupt gzip data: {e}") from None
    # an empty block gives an empty shard its column types
    columns, valid = zip(*(blocks or [_parse_block([], ids, path)]))
    code, epoch, lat, lon = map(np.concatenate, zip(*columns))
    counters = {
        "lines_read": lines_read,
        "lines_malformed": lines_read - sum(valid),
        "reports_accepted": len(code),
        "reports_rejected_accuracy": sum(valid) - len(code),
    }
    return counters, list(map(bytes.decode, ids)), [code, epoch, lat, lon]
