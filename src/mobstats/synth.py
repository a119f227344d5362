"""Deterministic synthetic position-report generator with truth sidecars.

Every trajectory is derived from named random.Random streams keyed by
(seed, device) and (seed, device, date), so regenerating a scenario is
byte-identical regardless of platform or iteration order. The truth
sidecar holds oracle.oracle_metrics of each generated day's accepted
rows. A generated day is one of the pipeline's device-days: its reports
fall from 08:00 to 20:00 local time at the home solar offset, the offset
the pipeline takes from a device's first accepted report, which sits at
home. Each shard is written by its own task, which may run in a forked
worker; the parent only sorts the tasks' truth records and sums their
counts, so the bytes do not depend on the worker count.

The styles read the method's constants from metrics and ingest when
called: "sparse" and "short" days fall short of DEFAULT_MIN_REPORTS and
DEFAULT_MIN_SPAN_HOURS, accuracies lie 5 m either side of ACCURACY_MAX_M,
and a "planned" day has one report at an exact prescribed distance from
its first, floor(DEFAULT_TRIM_FRACTION n) decoys beyond it and the rest
well inside it, making the trimmed max distance equal the prescription.
Scaling the prescription per date then moves every region's median by
that factor exactly, which pins down the expected mobility index
(100 * scale) without tolerance gymnastics.
"""

from __future__ import annotations

import datetime as dt
import glob
import gzip
import io
import json
import math
import os
import random
from contextlib import suppress
from dataclasses import dataclass

from . import ingest, metrics, oracle
from .collate import date_to_day_number, day_number_to_date
from .errors import ConfigError
from .geo import EARTH_RADIUS_KM
from .pipeline import atomic_write, map_tasks

HEADER = "device_id,epoch_s,lat,lon,accuracy_m"

ELIGIBLE_STYLES = ("planned", "scatter", "collinear", "duplicates", "antimeridian", "tight")
INELIGIBLE_STYLES = ("sparse", "short")
STYLES = ELIGIBLE_STYLES + INELIGIBLE_STYLES

# every entry must fail validation; checked by tests
MALFORMED_LINES = (
    "garbage",
    "dev,notanepoch,1.0,2.0,3.0",
    "dev,123,95.0,0.0,5.0",
    "dev,123,0.0,181.0,5.0",
    "dev,123,0.0,0.0,-4.0",
    ",123,0.0,0.0,5.0",
    "dev,123,0.0,0.0,5.0,extra",
    "dev,-5,0.0,0.0,5.0",
    "",
    "dev,123,nan,0.0,5.0",
    "dev,123,0.0,0.0,inf",
)

Row = tuple[int, float, float, float]  # (epoch_s, lat, lon, accuracy_m)

_DAY_START_S = 8 * 3600
_DAY_END_S = 20 * 3600


# ---------------------------------------------------------------- toy world

# (admin1, admin2, region_id, lon0, lon1, lat0, lat1): two admin1 halves,
# then four 4x4 degree counties in a 2x2 grid nested inside them
_TOY_REGIONS = (
    ("West", "", "AA-W", 0.0, 4.0, -4.0, 4.0),
    ("East", "", "AA-E", 4.0, 8.0, -4.0, 4.0),
    ("West", "Westburg County", "AA-W-01", 0.0, 4.0, 0.0, 4.0),
    ("West", "Westfield County", "AA-W-02", 0.0, 4.0, -4.0, 0.0),
    ("East", "Eastburg County", "AA-E-01", 4.0, 8.0, 0.0, 4.0),
    ("East", "Eastfield County", "AA-E-02", 4.0, 8.0, -4.0, 0.0),
)
_TOY_PLACES = (
    ("Westburg", 2.0, 2.0, "AA-W-01"),
    ("Westfield", -2.0, 2.0, "AA-W-02"),
    ("Eastburg", 2.0, 6.0, "AA-E-01"),
    ("Eastfield", -2.0, 6.0, "AA-E-02"),
)


def _box_ring(lon0: float, lon1: float, lat0: float, lat1: float) -> list[list[float]]:
    return [[lon0, lat0], [lon1, lat0], [lon1, lat1], [lon0, lat1], [lon0, lat0]]


def toy_gazetteer_records() -> list[dict]:
    """Gazetteer records for the toy country AA: 2 admin1 halves, 4 counties."""
    regions = [
        {"type": "region", "country_code": "AA", "admin1": admin1, "admin2": admin2,
         "region_id": rid, "polygons": [_box_ring(lon0, lon1, lat0, lat1)]}
        for admin1, admin2, rid, lon0, lon1, lat0, lat1 in _TOY_REGIONS
    ]
    return regions + [{"type": "place", "name": name, "lat": lat, "lon": lon, "region_id": rid}
                      for name, lat, lon, rid in _TOY_PLACES]


def write_toy_gazetteer(path: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in toy_gazetteer_records():
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    return path


# ------------------------------------------------------------- trajectories


def destination(lat: float, lon: float, bearing_deg: float, distance_km: float) -> tuple[float, float]:
    """Point reached from (lat, lon) moving distance_km along a great circle."""
    delta = distance_km / EARTH_RADIUS_KM
    theta = math.radians(bearing_deg)
    phi1 = math.radians(lat)
    lam1 = math.radians(lon)
    sin_phi2 = math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    phi2 = math.asin(max(-1.0, min(1.0, sin_phi2)))
    lam2 = lam1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * math.sin(phi2),
    )
    lon2 = (math.degrees(lam2) + 180.0) % 360.0 - 180.0
    return math.degrees(phi2), lon2


def _day_seconds(rng: random.Random, n: int, end: int = _DAY_END_S) -> list[int]:
    """n distinct seconds-of-day, first exactly at 08:00, last exactly at end."""
    if n == 1:
        return [_DAY_START_S]
    middle = rng.sample(range(_DAY_START_S + 1, end), n - 2)
    return [_DAY_START_S] + sorted(middle) + [end]


def _short_end_s() -> int:
    """The second of day a short day ends at: a minute short of the method's span."""
    return _DAY_START_S + int(metrics.DEFAULT_MIN_SPAN_HOURS * 3600) - 60


def _acc(rng: random.Random) -> float:
    return round(rng.uniform(2.0, ingest.ACCURACY_MAX_M - 5.0), 1)


def day_rows(
    rng: random.Random,
    style: str,
    home_lat: float,
    home_lon: float,
    day_start_epoch: int,
    n: int,
    target_km: float,
) -> list[Row]:
    """Accepted-report rows for one device-day in the given style.

    Rows are sorted by epoch with distinct epochs; the first row sits at
    (home_lat, home_lon). Eligible styles span exactly 12 local hours.
    """
    if style == "sparse":
        n = rng.randint(1, metrics.DEFAULT_MIN_REPORTS - 1)
    secs = _day_seconds(rng, n, _short_end_s() if style == "short" else _DAY_END_S)

    pts: list[tuple[float, float]]
    if style == "planned":
        k = int(metrics.DEFAULT_TRIM_FRACTION * n)
        others = [destination(home_lat, home_lon, rng.uniform(0.0, 360.0), target_km)]
        others += [
            destination(home_lat, home_lon, rng.uniform(0.0, 360.0), 2.0 * target_km)
            for _ in range(k)
        ]
        others += [
            destination(home_lat, home_lon, rng.uniform(0.0, 360.0), rng.uniform(0.0, 0.45) * target_km)
            for _ in range(n - 2 - k)
        ]
        rng.shuffle(others)
        pts = [(home_lat, home_lon)] + others
    elif style == "collinear":
        r = min(target_km / 111.0, 1.0)
        if rng.random() < 0.5:
            pts = [(home_lat, home_lon)] + [
                (home_lat, home_lon + rng.uniform(-r, r)) for _ in range(n - 1)
            ]
        else:
            pts = [(home_lat, home_lon)] + [
                (home_lat + rng.uniform(-r, r), home_lon) for _ in range(n - 1)
            ]
    elif style == "duplicates":
        uniq = [(home_lat, home_lon)] + [
            destination(home_lat, home_lon, rng.uniform(0.0, 360.0), rng.uniform(0.0, target_km))
            for _ in range(rng.randint(1, 3))
        ]
        pts = [uniq[0]] + [uniq[rng.randrange(len(uniq))] for _ in range(n - 1)]
    elif style == "tight":
        pts = [(home_lat, home_lon)] * n
    else:  # scatter, antimeridian, sparse, short: uniform cloud around home
        r = min(target_km / 111.0, 2.0)
        pts = [(home_lat, home_lon)]
        for _ in range(len(secs) - 1):
            lat = home_lat + rng.uniform(-r, r)
            lon = (home_lon + rng.uniform(-r, r) + 180.0) % 360.0 - 180.0
            pts.append((lat, lon))

    return [(day_start_epoch + s, lat, lon, _acc(rng)) for s, (lat, lon) in zip(secs, pts)]


def random_day_rows(rng: random.Random, style: str | None = None) -> list[Row]:
    """A self-contained random device-day for oracle-equivalence checks."""
    if style is None:
        style = rng.choice(STYLES)
    if style == "antimeridian":
        home_lat = rng.uniform(-60.0, 60.0)
        home_lon = rng.choice((179.85, -179.85))
    else:
        home_lat = rng.uniform(-80.0, 80.0)
        home_lon = rng.uniform(-170.0, 170.0)
    tz = oracle.solar_offset_hours(home_lon)
    day_start = 18330 * 86400 - 3600 * tz  # local midnight of 2020-03-09
    n = rng.randint(10, 40)
    target = rng.uniform(0.05, 25.0)
    return day_rows(rng, style, home_lat, home_lon, day_start, n, target)


# ---------------------------------------------------------------- scenarios


@dataclass
class ScenarioSpec:
    """Knobs for one synthetic dataset; the seed fully determines the bytes."""

    seed: int = 0
    devices: int = 48
    start_date: dt.date = dt.date(2020, 2, 17)
    end_date: dt.date = dt.date(2020, 3, 13)
    base_mobility_km: float = 5.2
    scale: float = 1.0
    scale_start: dt.date = dt.date(2020, 3, 9)
    styles: tuple[str, ...] = ("planned",)
    reports_min: int = 12
    reports_max: int = 24
    accuracy_reject_fraction: float = 0.0
    malformed_fraction: float = 0.0
    ineligible_fraction: float = 0.0
    shards: int = 4
    gzip_shards: bool = False

    def validate(self) -> None:
        """Raise ConfigError unless every knob is in the generator's domain."""
        # exact types: a bool is not a count, and a datetime does not compare with a date
        for names, kinds in (
            (("seed", "devices", "reports_min", "reports_max", "shards"), (int,)),
            (("base_mobility_km", "scale", "accuracy_reject_fraction", "malformed_fraction",
              "ineligible_fraction"), (int, float)),
            (("start_date", "end_date", "scale_start"), (dt.date,)),
            (("styles",), (tuple, list)),
            (("gzip_shards",), (bool,)),
        ):
            for name in names:
                if type(getattr(self, name)) not in kinds:
                    raise ConfigError(f"{name} must be {' or '.join(k.__name__ for k in kinds)}, "
                                      f"got {getattr(self, name)!r}")
        bad = [s for s in self.styles if s not in STYLES]  # so every style is a str
        if bad:
            raise ConfigError(f"unknown styles {bad}; choose from {STYLES}")
        if not self.styles:
            raise ConfigError(f"no styles given; choose from {STYLES}")
        if self.start_date > self.end_date:
            raise ConfigError(f"date range is empty: {self.start_date} > {self.end_date}")
        # every epoch written, 08:00 to 20:00 local at a solar offset of -12 h
        # to +12 h, must pass ingest's range rules: 0 <= epoch <= MAX_EPOCH
        first = day_number_to_date(-((_DAY_START_S - 12 * 3600) // 86400))
        last = day_number_to_date((ingest.MAX_EPOCH - 12 * 3600 - _DAY_END_S) // 86400)
        if self.start_date < first or self.end_date > last:
            raise ConfigError(f"dates must be within {first} and {last}, the days whose "
                              f"reports ingest accepts at any solar offset, got "
                              f"{self.start_date} to {self.end_date}")
        if self.devices < 1:
            raise ConfigError(f"devices must be >= 1, got {self.devices}")
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if not 1 <= self.reports_min <= self.reports_max:
            raise ConfigError(f"need 1 <= reports_min <= reports_max, "
                              f"got {self.reports_min} and {self.reports_max}")
        for name in ("accuracy_reject_fraction", "malformed_fraction", "ineligible_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if not 0.0 < self.base_mobility_km < math.inf:
            raise ConfigError(f"base_mobility_km must be finite and > 0, got {self.base_mobility_km}")
        if not 0.0 <= self.scale < math.inf:
            raise ConfigError(f"scale must be finite and >= 0, got {self.scale}")
        # a day holds up to reports_max + 2 reports, each at its own second of
        # the day's window, both ends included
        short = "short" in self.styles or self.ineligible_fraction > 0
        free_s = (_short_end_s() if short else _DAY_END_S) - _DAY_START_S - 1
        if self.reports_max > free_s:
            raise ConfigError(f"reports_max must be <= {free_s}, the free seconds in a "
                              f"{'short' if short else 'full'} day's window, got {self.reports_max}")

    def scale_for(self, date: dt.date) -> float:
        """Mobility scale on date: 1.0 before scale_start, scale from it on."""
        return self.scale if date >= self.scale_start else 1.0

    def dates(self) -> list[dt.date]:
        days = (self.end_date - self.start_date).days + 1
        return [self.start_date + dt.timedelta(days=i) for i in range(days)]


def _device_home(rng: random.Random, style: str) -> tuple[float, float]:
    if style == "antimeridian":
        return rng.uniform(-60.0, 60.0), rng.choice((179.85, -179.85))
    *_, lon0, lon1, lat0, lat1 = _TOY_REGIONS[2 + rng.randrange(4)]  # a county
    return rng.uniform(lat0 + 0.6, lat1 - 0.6), rng.uniform(lon0 + 0.6, lon1 - 0.6)


def generate(spec: ScenarioSpec, out_dir: str) -> dict:
    """Write input shards, the toy gazetteer and the truth sidecar.

    A spec outside ScenarioSpec.validate's domain raises ConfigError before
    anything is created. The previous tree's expected.json, truth.ndjson and
    shards/part-*.csv[.gz] are removed first. Device i goes to shard
    i % spec.shards; one task per shard, inline or on forked workers for the
    usable CPUs (no byte depends on how many), streams its devices' lines
    to a .tmp file renamed into place when complete; when any task fails,
    the .tmp files are removed. expected.json is written last: it marks a
    complete tree.

    Returns the expected ingest counters and file paths. The sidecar holds
    one NDJSON record per generated device-day, sorted by device and date,
    with the verdict and metrics oracle.oracle_metrics gives that day.
    """
    spec.validate()
    shards_dir = os.path.join(out_dir, "shards")
    truth_path = os.path.join(out_dir, "truth.ndjson")
    expected_path = os.path.join(out_dir, "expected.json")
    os.makedirs(shards_dir, exist_ok=True)
    for pattern in ("expected.json", "truth.ndjson", "shards/part-*.csv", "shards/part-*.csv.gz"):
        for path in glob.glob(os.path.join(glob.escape(out_dir), pattern)):
            os.remove(path)
    gaz_path = write_toy_gazetteer(os.path.join(out_dir, "gazetteer.ndjson"))

    suffix = ".csv.gz" if spec.gzip_shards else ".csv"
    shard_paths = [
        os.path.join(shards_dir, f"part-{s:02d}{suffix}") for s in range(spec.shards)
    ]
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    try:
        done = map_tasks(_write_shard, [(spec, s, path) for s, path in enumerate(shard_paths)],
                         workers)
    except BaseException:
        # a failed or killed task's partial shard must not stay behind
        for path in shard_paths:
            with suppress(OSError):
                os.remove(path + ".tmp")
        raise
    truth = sorted((t for recs, *_ in done for t in recs), key=lambda t: (t["device_id"], t["date"]))
    accepted, rejected, malformed = map(sum, zip(*(counts for _, *counts in done)))

    atomic_write(truth_path, lambda fh: fh.writelines(
        json.dumps(rec, separators=(",", ":")) + "\n" for rec in truth))
    expected = {
        "lines_read": accepted + rejected + malformed,
        "lines_malformed": malformed,
        "reports_accepted": accepted,
        "reports_rejected_accuracy": rejected,
        "device_days": len(truth),
        "eligible_device_days": sum(1 for t in truth if t["eligible"]),
    }
    atomic_write(expected_path, lambda fh: fh.write(json.dumps(expected, indent=2, sort_keys=True) + "\n"))
    return {
        **expected,
        "shard_paths": shard_paths,
        "gazetteer_path": gaz_path,
        "truth_path": truth_path,
    }


def _write_shard(task: tuple) -> tuple[list[dict], int, int, int]:
    """Write shard s (devices s, s + shards, ...); its truth records and
    accepted, rejected and malformed line counts."""
    spec, s, path = task
    rng_s = random.Random(f"{spec.seed}:shard:{s}")
    truth: list[dict] = []
    accepted = rejected = malformed = 0
    dates = spec.dates()
    tmp = open(path + ".tmp", "wb")
    # the gzip header names the shard, not the .tmp; mtime pinned so the
    # compressed container is byte-reproducible; level 1: these are scratch
    # test inputs, level 9 costs about 10x the CPU for 11 % smaller files,
    # and inflating costs the same
    raw = gzip.GzipFile(path, "wb", compresslevel=1, fileobj=tmp, mtime=0) if spec.gzip_shards else tmp
    with tmp, io.TextIOWrapper(raw, encoding="utf-8", newline="\n") as fh:
        fh.write(HEADER + "\n")
        for i in range(s, spec.devices, spec.shards):
            rng_d = random.Random(f"{spec.seed}:device:{i}")
            device_id = f"{rng_d.getrandbits(40):010x}-{i:04d}"
            style = rng_d.choice(spec.styles)
            home_lat, home_lon = _device_home(rng_d, style)
            wobble = rng_d.uniform(0.9, 1.1)
            base_km = spec.base_mobility_km * wobble
            n_base = rng_d.randint(spec.reports_min, spec.reports_max)
            tz_home = oracle.solar_offset_hours(home_lon)

            for date in dates:
                rng_day = random.Random(f"{spec.seed}:day:{device_id}:{date.isoformat()}")
                day_style = style
                if spec.ineligible_fraction and rng_day.random() < spec.ineligible_fraction:
                    day_style = rng_day.choice(INELIGIBLE_STYLES)
                n = max(spec.reports_min, n_base + rng_day.randint(-2, 2))
                day_start = date_to_day_number(date) * 86400 - 3600 * tz_home
                rows = day_rows(
                    rng_day, day_style, home_lat, home_lon, day_start, n,
                    base_km * spec.scale_for(date),
                )
                # looked up per day: perfbench's reference patches it
                truth.append({"device_id": device_id, "date": date.isoformat(),
                              **oracle.oracle_metrics(rows)})
                accepted += len(rows)

                n_rej = int(spec.accuracy_reject_fraction * len(rows))
                rej_rows = [
                    (
                        day_start + rng_day.randint(_DAY_START_S, _DAY_END_S),
                        home_lat,
                        home_lon,
                        round(rng_day.uniform(ingest.ACCURACY_MAX_M + 5.0, 130.0), 1),
                    )
                    for _ in range(n_rej)
                ]
                rejected += n_rej

                for epoch, lat, lon, acc in sorted(rows + rej_rows):
                    if spec.malformed_fraction and rng_s.random() < spec.malformed_fraction:
                        fh.write(rng_s.choice(MALFORMED_LINES) + "\n")
                        malformed += 1
                    fh.write(f"{device_id},{epoch},{lat!r},{lon!r},{acc!r}\n")
    os.replace(path + ".tmp", path)
    return truth, accepted, rejected, malformed
