import codecs
import gzip
import logging
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adapters import shard_rows
from mobstats import ingest
from mobstats.ingest import MAX_EPOCH, parse_fields, read_shard
from mobstats.synth import MALFORMED_LINES, ScenarioSpec, generate


class TestParseReportLine:
    def test_valid_line(self):
        r = parse_fields("abc,1584316800,40.7,-74.0,12.5")
        assert r == ("abc", 1584316800, 40.7, -74.0, 12.5)

    def test_crlf_stripped(self):
        r = parse_fields("abc,1584316800,40.7,-74.0,12.5\r\n")
        assert isinstance(r, tuple)
        assert r[2] == 40.7

    @pytest.mark.parametrize("line,reason", [
        ("abc,1584316800,95.0,-74.0,12.5", "lat_range"),
        ("abc,notanumber,40.7,-74.0,12.5", "bad_epoch"),
        ("abc,1584316800,40.7,-74.0", "field_count"),
        ("abc,1584316800,40.7,-74.0,12.5,extra", "field_count"),
        (",1584316800,40.7,-74.0,12.5", "empty_device_id"),
        ("abc,-5,40.7,-74.0,12.5", "negative_epoch"),
        ("abc,1584316800,40.7,x,12.5", "bad_number"),
        ("abc,1584316800,40.7,-181.0,12.5", "lon_range"),
        ("abc,1584316800,40.7,-74.0,-1.0", "bad_accuracy"),
        ("abc,1584316800,nan,-74.0,12.5", "lat_range"),
        ("abc,1584316800,40.7,-74.0,inf", "bad_accuracy"),
        ("", "field_count"),
        # a local date after 9999-12-31 is past datetime.date
        ("abc,253402257600,40.7,-74.0,12.5", "epoch_range"),
        ("abc,9223372036854775808,40.7,-74.0,12.5", "epoch_range"),
        # several faults: syntax before range, then the range rules in their order
        ("abc,253402257600,x,0,1", "bad_number"),
        ("abc,-5,40,x,1", "bad_number"),
        ("abc,1,95,181,-1", "lat_range"),
        ("abc,1,0,181,-1", "lon_range"),
    ])
    def test_malformed(self, line, reason):
        assert parse_fields(line) == reason

    def test_last_datable_epoch_accepted(self):
        assert parse_fields(f"d1,{MAX_EPOCH},1.0,2.0,5.0")[1] == MAX_EPOCH

    def test_undecodable_device_id(self):
        # a lone surrogate is what surrogateescape decoding makes of a non-UTF-8 byte
        assert parse_fields("ab\udcff,1584316800,40.7,-74.0,12.5") == "bad_utf8"
        assert parse_fields("caf\u00e9,1584316800,40.7,-74.0,12.5")[0] == "caf\u00e9"

    def test_lon_180_normalized(self):
        r = parse_fields("abc,0,0.0,180.0,1.0")
        assert r[3] == -180.0

    def test_generator_malformed_samples_all_rejected(self):
        for line in MALFORMED_LINES:
            assert isinstance(parse_fields(line), str), line

    def test_never_raises_on_noise(self):
        for junk in ["\x00,\x00", "a,b,c,d,e", ",,,,", "a,1,2,3,4,5,6,7", "\n"]:
            assert parse_fields(junk) is not None

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80))
    def test_total_on_arbitrary_text(self, line):
        out = parse_fields(line.replace("\n", " "))
        assert isinstance(out, (tuple, str))


def _read(convert, value) -> str:
    """repr(convert(value)), which tells -0.0 from 0.0 and matches nan, or the error."""
    try:
        return repr(convert(value))
    except ValueError:
        return "ValueError"


class TestBytesReadAsText:
    """The bulk route reads ASCII bytes with int() and float(), and parse_fields reads
    the same text: the two agree on every ASCII string, or the route would change
    a value."""

    @settings(max_examples=2000)
    @given(st.text(st.sampled_from("0123456789.eE+-_ \t\x0b\x0c\x1c\x00iInNfFaA"),
                   max_size=12))
    @example("1\x1c")  # whitespace to str.isspace, not to the bytes parser
    @example("\x0b-1_0.5e+2\x0c")
    @example("1\x00")
    @example("-InFiNiTy")
    @example("nan")
    def test_int_and_float_read_ascii_bytes_as_text(self, text):
        for convert in (int, float):
            assert _read(convert, text) == _read(convert, text.encode("ascii")), convert


GOOD = [
    "d1,1584316800,40.7,-74.0,12.5",
    "d1,1584320400,40.8,-74.1,9.0",
    "d2,1584316900,10.0,20.0,50.0",
]
BAD = "d3,1584316800,95.0,0.0,1.0"
REJ = "d4,1584316800,40.0,-74.0,50.1"


def write_shard(path, lines, header=None, compress=False, bom=False):
    text = ""
    if header is not None:
        text += header + "\n"
    text += "".join(line + "\n" for line in lines)
    encoding = "utf-8-sig" if bom else "utf-8"  # utf-8-sig writes a BOM first
    if compress:
        with gzip.open(path, "wt", encoding=encoding) as fh:
            fh.write(text)
    else:
        path.write_text(text, encoding=encoding)
    return str(path)


def counters(path) -> tuple:
    """read_shard's counters in the dict's order, the run report's: lines read,
    malformed, accepted, rejected for accuracy."""
    return tuple(read_shard(path)[0].values())


class TestReadShard:
    def test_counts(self, tmp_path):
        p = write_shard(tmp_path / "s.csv", GOOD + [BAD])
        assert len(shard_rows(read_shard(p))) == 3
        assert counters(p) == (4, 1, 3, 0)

    def test_accuracy_rejection_counted(self, tmp_path):
        p = write_shard(tmp_path / "s.csv", GOOD + [REJ])
        assert len(shard_rows(read_shard(p))) == 3
        assert counters(p) == (4, 0, 3, 1)

    def test_ids_hold_an_accepted_report(self, tmp_path):
        # d3's only line is out of range and d4's over the accuracy cut
        p = write_shard(tmp_path / "s.csv", [BAD, REJ, GOOD[2], GOOD[0]])
        _, ids, (code, *_) = read_shard(p)
        assert ids == ["d2", "d1"]
        assert code.tolist() == [0, 1]

    def test_ids_listed_in_the_order_their_first_accepted_report_is_read(self, tmp_path):
        # A's first line is over the accuracy cut, so B's accepted line is read first
        p = write_shard(tmp_path / "s.csv", ["A,1,1.0,2.0,50.1", "B,2,1.0,2.0,3.0",
                                             "A,3,1.0,2.0,3.0"])
        _, ids, (code, epoch, *_) = read_shard(p)
        assert ids == ["B", "A"]
        assert list(zip([ids[c] for c in code.tolist()], epoch.tolist())) == [("B", 2), ("A", 3)]

    def test_non_ascii_id_rejected_for_accuracy_is_not_listed(self, tmp_path):
        p = write_shard(tmp_path / "s.csv", ["café,1,1.0,2.0,50.1", "d1,2,1.0,2.0,3.0"])
        assert read_shard(p)[1] == ["d1"]
        assert counters(p) == (2, 0, 1, 1)

    def test_ascii_id_read_on_both_routes_gets_one_code(self, tmp_path):
        # "+3" is not all digits, so its line goes to parse_fields and d2's stays bulk
        p = write_shard(tmp_path / "s.csv", ["d1,1,1.0,2.0,3.0", "d1,+3,1.0,2.0,3.0",
                                             "d2,2,1.0,2.0,3.0"])
        _, ids, (code, epoch, *_) = read_shard(p)
        assert ids == ["d1", "d2"]
        assert code.tolist() == [0, 1, 0]
        assert epoch.tolist() == [1, 2, 3]

    def test_gzip_twin_identical(self, tmp_path):
        lines = GOOD + [BAD, REJ]
        plain = write_shard(tmp_path / "a.csv", lines)
        packed = write_shard(tmp_path / "a.csv.gz", lines, compress=True)
        assert shard_rows(read_shard(plain)) == shard_rows(read_shard(packed))
        assert counters(plain) == counters(packed) == (5, 1, 3, 1)

    def test_empty_file(self, tmp_path):
        p = write_shard(tmp_path / "s.csv", [])
        assert shard_rows(read_shard(p)) == []
        assert counters(p) == (0, 0, 0, 0)

    def test_header_skipped_silently(self, tmp_path):
        p = write_shard(tmp_path / "s.csv", GOOD, header="device_id,epoch_s,lat,lon,accuracy_m")
        assert len(shard_rows(read_shard(p))) == 3
        # header is not a data line, so it lands in no counter
        assert counters(p) == (3, 0, 3, 0)

    @pytest.mark.parametrize("header,suffix", [
        (None, ".csv"), ("device_id,epoch_s,lat,lon,accuracy_m", ".csv"), (None, ".csv.gz"),
    ], ids=["no-header", "header", "gzip"])
    def test_leading_bom_dropped(self, tmp_path, header, suffix):
        lines = GOOD + [BAD, REJ]
        compress = suffix.endswith(".gz")
        plain = write_shard(tmp_path / f"a{suffix}", lines, header, compress)
        bom = write_shard(tmp_path / f"b{suffix}", lines, header, compress, bom=True)
        opener = gzip.open if compress else open
        with opener(bom, "rb") as fh:
            assert fh.read(3) == codecs.BOM_UTF8
        assert read_shard(bom)[1] == read_shard(plain)[1] == ["d1", "d2"]
        assert shard_rows(read_shard(bom)) == shard_rows(read_shard(plain))
        assert counters(bom) == counters(plain) == (5, 1, 3, 1)

    def test_bom_alone_is_an_empty_shard(self, tmp_path):
        p = write_shard(tmp_path / "s.csv", [], bom=True)
        assert Path(p).read_bytes() == codecs.BOM_UTF8
        assert shard_rows(read_shard(p)) == []
        assert counters(p) == (0, 0, 0, 0)

    def test_first_data_line_not_eaten_as_header(self, tmp_path):
        p = write_shard(tmp_path / "s.csv", GOOD)
        assert len(shard_rows(read_shard(p))) == 3

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            read_shard(str(tmp_path / "nope.csv"))

    def test_corrupt_gzip_raises(self, tmp_path):
        p = tmp_path / "s.csv.gz"
        p.write_bytes(b"this is not gzip data")
        with pytest.raises(OSError, match="s.csv.gz"):
            read_shard(str(p))

    def test_truncated_gzip_raises_oserror_naming_path(self, tmp_path):
        packed = write_shard(tmp_path / "s.csv.gz", GOOD * 50, compress=True)
        p = tmp_path / "cut.csv.gz"
        p.write_bytes(Path(packed).read_bytes()[:-20])
        with pytest.raises(OSError, match="cut.csv.gz"):
            read_shard(str(p))

    def test_corrupt_deflate_block_raises_oserror_naming_path(self, tmp_path):
        p = tmp_path / "bad.csv.gz"
        # a valid gzip header followed by a deflate block of reserved type 3
        p.write_bytes(gzip.compress(b"")[:10] + b"\xff" * 32)
        with pytest.raises(OSError, match="bad.csv.gz"):
            read_shard(str(p))

    def test_non_utf8_byte_is_a_malformed_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes("\n".join(GOOD).encode() + b"\nd\xff9,1584316800,1.0,2.0,3.0\n"
                      + b"d5,15843\xe96800,1.0,2.0,3.0\n")
        reports = shard_rows(read_shard(str(p)))
        assert [r[0] for r in reports] == ["d1", "d1", "d2"]
        assert counters(str(p)) == (5, 2, 3, 0)

    def test_file_order_preserved(self, tmp_path):
        p = write_shard(tmp_path / "s.csv", GOOD)
        epochs = [r[1] for r in shard_rows(read_shard(p))]
        assert epochs == [1584316800, 1584320400, 1584316900]

    def test_rows_and_ids_in_route_order(self, tmp_path):
        # block by block: the canonical lines' rows and ids first, then parse_fields', each in
        # line order; a non-ASCII id sends its line to parse_fields
        p = tmp_path / "s.csv"
        p.write_text("café,1,1.0,2.0,3.0\nd1,2,1.0,2.0,3.0\nbé,3,1.0,2.0,3.0\n"
                     "d2,4,1.0,2.0,3.0\n", encoding="utf-8")
        _, ids, (code, epoch, *_) = read_shard(str(p))
        assert ids == ["d1", "d2", "café", "bé"]
        assert code.tolist() == [0, 1, 2, 3]
        assert epoch.tolist() == [2, 4, 1, 3]
        # 30-byte reads, each run on to its next LF, make blocks of the first two lines
        # and the last two
        with mock.patch.object(ingest, "BLOCK_BYTES", 30):
            _, ids, (code, epoch, *_) = read_shard(str(p))
        assert ids == ["d1", "café", "d2", "bé"]
        assert code.tolist() == [0, 1, 2, 3]
        assert epoch.tolist() == [2, 1, 4, 3]

    def test_every_malformed_line_logs_its_reason(self, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="mobstats.ingest")
        # canonical lines that fail a range rule: the bulk route names the rule
        # parse_fields names, in line order
        lines = ["d1,1,95.0,0.0,5.0", "d1,1,0.0,181.0,5.0", "d1,1,1.0,2.0,3.0",
                 "d1,253402257600,0.0,0.0,5.0", "d1,1,0.0,0.0,-4.0", "d1,1,nan,0.0,inf",
                 "d1,1,1,181,-1"]
        p = write_shard(tmp_path / "s.csv", lines)
        read_shard(p)
        assert [r.getMessage() for r in caplog.records] == [
            f"malformed line in {p}: {parse_fields(ln)}" for ln in lines
            if isinstance(parse_fields(ln), str)]
        # generated shards: one record per malformed line, with parse_fields' reasons
        spec = ScenarioSpec(seed=5, devices=12, shards=2, malformed_fraction=0.05)
        for path in generate(spec, str(tmp_path / "g"))["shard_paths"]:
            caplog.clear()
            malformed = read_shard(path)[0]["lines_malformed"]
            reasons = [r.getMessage().rpartition(": ")[2] for r in caplog.records]
            assert len(reasons) == malformed > 0
            with open(path, encoding="utf-8") as fh:
                expected = [parse_fields(ln) for ln in fh.read().splitlines()[1:]]
            assert Counter(reasons) == Counter(r for r in expected if isinstance(r, str))

    @given(lines=st.lists(st.sampled_from(GOOD + [BAD, REJ] + list(MALFORMED_LINES)), max_size=40))
    def test_every_line_lands_in_exactly_one_bucket(self, tmp_path_factory, lines):
        # header up front so no data line can be eaten by header detection
        p = write_shard(tmp_path_factory.mktemp("shard") / "s.csv",
                        [ln.replace("\n", " ") for ln in lines],
                        header="device_id,epoch_s,lat,lon,accuracy_m")
        # each counter against the kind of line it counts, not against the others
        good, rej = sum(ln in GOOD for ln in lines), lines.count(REJ)
        bad = sum(ln == BAD or ln in MALFORMED_LINES for ln in lines)
        assert counters(p) == (len(lines), bad, good, rej)
        assert len(shard_rows(read_shard(p))) == good
