"""The region-day row, OutputRecord, and its serialization to NDJSON and CSV.

Each serialized table is an ordered (name, kind) field table; the writers
and readers are loops over it, so a record's verbose values are written
only under --verbose-stats. The writers format one field of all rows at
a time, and the stats writers a region's fields once. Both formats carry identical values: m50
fixed to 3 decimals, m50_index to 1 decimal (JSON null / empty CSV cell
when absent). Records are written in the reduce's canonical order with a
fixed key order, so identical inputs always produce byte-identical files.
UTF-8, LF line endings.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import starmap
from json.encoder import encode_basestring_ascii
from operator import add, attrgetter, itemgetter
from typing import IO, Iterable, Sequence

from .errors import DataError, numbered_lines


@dataclass(frozen=True, slots=True)
class Kind:
    """A field's value type: text (str), a count (int) or a float with fixed decimals."""

    type: type
    places: int = 0
    nullable: bool = False

    def cells(self, values: Iterable, in_csv: bool) -> list[str]:
        """Each value as NDJSON text, or as a CSV cell; null or an empty cell for None."""
        if self.type is str:
            # json.dumps's text for a str, without its per-call set-up
            text = str if in_csv else encode_basestring_ascii
        elif self.type is float:
            text = f"{{:.{self.places}f}}".format
        else:
            text = str
        empty = "" if in_csv else "null"
        return [empty if v is None else text(v) for v in values]

    def parse(self, value, in_csv: bool):
        """A JSON value or CSV cell read back; ValueError when it is not of this kind."""
        if value is None or (in_csv and value == "" and self.type is not str):
            if self.nullable:
                return None
        elif in_csv or type(value) is self.type or (self.type is float and type(value) is int):
            parsed = self.type(value)
            # nan and inf would be written back as bare nan/inf, which is not JSON
            if self.type is not float or math.isfinite(parsed):
                return parsed
        raise ValueError


Fields = tuple[tuple[str, Kind], ...]

# a record's region: its key fields but the date
REGION_FIELDS: Fields = tuple(
    (name, Kind(str)) for name in ("country_code", "admin_level", "admin1", "admin2", "region_id")
)
KEY_FIELDS: Fields = REGION_FIELDS + (("date", Kind(str)),)
STATS_FIELDS: Fields = KEY_FIELDS + (
    ("samples", Kind(int)),
    ("m50", Kind(float, 3)),
    ("m50_index", Kind(float, 1, nullable=True)),
)
# the stats fields after the region's, which the writers format per row
DAY_FIELDS: Fields = STATS_FIELDS[len(REGION_FIELDS):]
# appended by --verbose-stats; None in records read from a file without them
VERBOSE_FIELDS: Fields = tuple(
    (name, Kind(float, 3, nullable=True)) for name in ("m_max_mean", "m_max_q1", "m_max_q3")
)
COMPARE_FIELDS: Fields = KEY_FIELDS + tuple(
    (name, Kind(float, 1, nullable=True)) for name in ("m50_index_a", "m50_index_b", "delta")
) + (("status", Kind(str)),)
CSV_HEADER = [name for name, _ in STATS_FIELDS]


@dataclass(slots=True)
class OutputRecord:
    country_code: str
    admin_level: str  # "admin1" | "admin2"
    admin1: str
    admin2: str
    region_id: str
    date: str  # yyyy-mm-dd
    samples: int
    m50: float
    m50_index: float | None
    m_max_mean: float | None = None
    m_max_q1: float | None = None
    m_max_q3: float | None = None


region_of = attrgetter(*(name for name, _ in REGION_FIELDS))


def _columns(rows: Sequence, fields: Fields, getter, in_csv: bool) -> list[list[str]]:
    """Each field's cells over rows, in table order; getter(name) reads a row's value."""
    return [kind.cells(map(getter(name), rows), in_csv) for name, kind in fields]


def _stats_rows(records: Sequence[OutputRecord], verbose: bool, in_csv: bool):
    """Each record's cells: its region's, formatted once per region, then its own."""
    one_per_region = {region_of(r): r for r in records}
    region_cells = dict(zip(one_per_region, zip(
        *_columns(one_per_region.values(), REGION_FIELDS, attrgetter, in_csv))))
    own = _columns(records, DAY_FIELDS + (VERBOSE_FIELDS if verbose else ()), attrgetter, in_csv)
    return map(add, map(region_cells.__getitem__, map(region_of, records)), zip(*own))


def _write_ndjson(rows: Iterable[Sequence[str]], fields: Fields, sink: IO[str]) -> None:
    """One JSON object per row of cells, LF-terminated, keys in table order."""
    line = "{{" + ",".join(f'"{name}":{{}}' for name, _ in fields) + "}}\n"
    sink.writelines(starmap(line.format, rows))


def write_ndjson(records: Sequence[OutputRecord], sink: IO[str], verbose: bool = False) -> None:
    fields = STATS_FIELDS + (VERBOSE_FIELDS if verbose else ())
    _write_ndjson(_stats_rows(records, verbose, in_csv=False), fields, sink)


def write_compare(rows: Sequence[dict], sink: IO[str]) -> None:
    _write_ndjson(zip(*_columns(rows, COMPARE_FIELDS, itemgetter, False)), COMPARE_FIELDS, sink)


def write_csv(records: Sequence[OutputRecord], sink: IO[str], verbose: bool = False) -> None:
    """Header plus one row per record, RFC-4180 quoting, LF line endings."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(name for name, _ in STATS_FIELDS + (VERBOSE_FIELDS if verbose else ()))
    writer.writerows(_stats_rows(records, verbose, in_csv=True))


def _parse_record(cells: dict, where: str, in_csv: bool) -> OutputRecord:
    """An OutputRecord from a name -> value mapping; an absent verbose field reads as None."""
    values = {}
    for name, kind in STATS_FIELDS + VERBOSE_FIELDS:
        try:
            values[name] = kind.parse(cells.get(name), in_csv)
        except (TypeError, ValueError):
            raise DataError(f"{where}: bad {name} value {cells.get(name)!r}") from None
    return OutputRecord(**values)


def read_ndjson(path: str) -> list[OutputRecord]:
    """Parse a stats NDJSON file back into records; raises DataError on bad schema."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in numbered_lines(fh, path):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{lineno}: invalid JSON: {e}") from None
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: record is not a JSON object")
            missing = [name for name in CSV_HEADER if name not in obj]
            if missing:
                raise DataError(f"{path}:{lineno}: missing fields {missing}")
            records.append(_parse_record(obj, f"{path}:{lineno}", in_csv=False))
    return records


def read_csv(path: str) -> list[OutputRecord]:
    """Parse a stats CSV file back into records (RFC-4180)."""
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(line for _, line in numbered_lines(fh, path))
        header = next(reader, None)
        if header is None or header[: len(CSV_HEADER)] != CSV_HEADER:
            raise DataError(f"{path}: unexpected CSV header {header!r}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise DataError(f"{where}: {len(row)} cells under a {len(header)}-cell header")
            records.append(_parse_record(dict(zip(header, row)), where, in_csv=True))
    return records

