"""Reading raw position-report shards.

Wire format: UTF-8 text, LF or CRLF line endings, one record per line as
``device_id,epoch_s,lat,lon,accuracy_m`` with no quoting. A ``.gz`` suffix
means the shard is gzip-compressed. A first line whose second field is not
an integer is treated as a vendor header and skipped silently. Bytes that
are not UTF-8 make their line malformed; a truncated or corrupt ``.gz``
stream is an IO error naming the shard.
"""

from __future__ import annotations

import gzip
import io
import logging
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterator

log = logging.getLogger(__name__)

# internal row shape used throughout the pipeline: (device_id, epoch_s, lat, lon, accuracy_m)
RawReport = tuple[str, int, float, float, float]


@dataclass(slots=True)
class IngestStats:
    """Per-shard line accounting; every input line lands in exactly one bucket."""

    lines_read: int = 0
    lines_malformed: int = 0
    reports_accepted: int = 0
    reports_rejected_accuracy: int = 0

    def merge(self, other: "IngestStats") -> None:
        self.lines_read += other.lines_read
        self.lines_malformed += other.lines_malformed
        self.reports_accepted += other.reports_accepted
        self.reports_rejected_accuracy += other.reports_rejected_accuracy


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
    if epoch < 0:
        return "negative_epoch"
    try:
        lat = float(parts[2])
        lon = float(parts[3])
        acc = float(parts[4])
    except ValueError:
        return "bad_number"
    # the comparisons also reject nan/inf
    if not -90.0 <= lat <= 90.0:
        return "lat_range"
    if not -180.0 <= lon <= 180.0:
        return "lon_range"
    if lon == 180.0:
        lon = -180.0
    if not 0.0 <= acc < float("inf"):
        return "bad_accuracy"
    return device_id, epoch, lat, lon, acc


def _has_surrogate(text: str) -> bool:
    """True if text holds a lone surrogate: an undecodable byte under surrogateescape."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def open_shard_text(path: str, errors: str = "strict") -> IO[str]:
    """Open a shard for reading, transparently decompressing ``.gz`` files.

    ``errors`` is the UTF-8 decoding error handler.
    """
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8", errors=errors, newline="")
    return open(path, "r", encoding="utf-8", errors=errors, newline="")


@contextmanager
def gzip_errors_as_io(path: str) -> Iterator[None]:
    """Re-raise a truncated or corrupt gzip stream read inside the block as OSError."""
    try:
        yield
    except (EOFError, zlib.error) as e:
        raise OSError(f"{path}: truncated or corrupt gzip data: {e}") from None


def _looks_like_header(line: str) -> bool:
    parts = line.rstrip("\r\n").split(",")
    if len(parts) < 2:
        return True
    try:
        int(parts[1])
    except ValueError:
        return True
    return False


def iter_shard_raw(path: str, accuracy_max_m: float, stats: IngestStats) -> Iterator[RawReport]:
    """Yield accepted raw report tuples from one shard, updating stats in place.

    A leading header line is skipped before any counting. IO and
    decompression failures raise OSError; malformed data lines, undecodable
    bytes included, never raise.
    """
    with gzip_errors_as_io(path), open_shard_text(path, "surrogateescape") as fh:
        first = fh.readline()
        if not first:
            return
        lines = iter(fh) if _looks_like_header(first) else chain([first], fh)
        for line in lines:
            stats.lines_read += 1
            row = parse_fields(line)
            if isinstance(row, str):
                stats.lines_malformed += 1
                log.debug("malformed line in %s: %s", path, row)
                continue
            if row[4] > accuracy_max_m:
                stats.reports_rejected_accuracy += 1
                continue
            stats.reports_accepted += 1
            yield row
