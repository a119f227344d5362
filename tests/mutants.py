"""Mutation check of tier-1: every listed mutant must make it fail.

pytest does not collect this file. From the repository root:

    python tests/mutants.py           # each mutant alone, tier-1 with -x on a copy of the tree
    python tests/mutants.py --check   # only check that each mutant's old text occurs once

A mutant is (file, old text, new text, why). Its old text must occur
exactly once in its file, so an edit that moves or rewrites the code under
a mutant fails the check instead of letting the list go stale. Each
mutant is applied alone to a temporary copy of the tree and tier-1 runs
there with -x; the mutant is killed when tier-1 fails or times out.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when
the list is stale, the unmutated copy does not collect, or tier-1 ends
in neither a pass nor a failure.

A change that checks its tests with a hand-made mutant adds it here.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
TIMEOUT_S = 900  # about 20 times a full tier-1 run

MUTANTS = [
    # the method's rules
    ("src/mobstats/aggregate.py",
     "& ((group_day + 3) % 7 < 5))",
     "& ((group_day + 3) % 7 < 6))",
     "the baseline admits Saturdays"),
    ("src/mobstats/aggregate.py",
     "& (group_day <= date_to_day_number(DEFAULT_BASELINE_END))",
     "& (group_day < date_to_day_number(DEFAULT_BASELINE_END))",
     "the baseline end is exclusive"),
    ("src/mobstats/ingest.py",
     "accepted = cols[3] <= ACCURACY_MAX_M",
     "accepted = cols[3] < ACCURACY_MAX_M",
     "the accuracy bound is exclusive"),
    ("src/mobstats/metrics.py",
     "too_few = counts < DEFAULT_MIN_REPORTS",
     "too_few = counts <= DEFAULT_MIN_REPORTS",
     "min_reports is exclusive"),
    ("src/mobstats/metrics.py",
     "(spans_s < DEFAULT_MIN_SPAN_HOURS * 3600.0)",
     "(spans_s <= DEFAULT_MIN_SPAN_HOURS * 3600.0)",
     "the minimum span is exclusive"),
    ("src/mobstats/metrics.py",
     "k = (trim_fraction * counts).astype(np.int64)",
     "k = np.ceil(trim_fraction * counts).astype(np.int64)",
     "the trim count uses ceil"),
    ("src/mobstats/collate.py",
     "for x in lon[devices].tolist()]",
     "for x in lon[devices + reports - 1].tolist()]",
     "the solar offset comes from a device's last report"),
    ("src/mobstats/geocode.py",
     "-regions[r].key.level, area[r],",
     "-regions[r].key.level, -area[r],",
     "the largest bounding box wins"),
    ("src/mobstats/aggregate.py",
     "+ m50[by_key[w_starts + w_counts // 2]]) / 2",
     "+ m50[by_key[w_starts + (w_counts - 1) // 2]]) / 2",
     "an even-count baseline median takes the lower middle"),
    # the reader's canonical line
    ("src/mobstats/ingest.py",
     "np.intp, m) <= 18)",
     "np.intp, m) <= 19)",
     "a canonical epoch may have 19 digits"),
    ("src/mobstats/ingest.py",
     "\n            & np.fromiter(map(bytes.isdigit, fields[1::5]), bool, m)).tolist()",
     ").tolist()",
     "a canonical epoch need not be all digits"),
    ("src/mobstats/ingest.py",
     "    if not b\"\".join(lines).isascii():\n"
     "        canonical &= np.fromiter(map(bytes.isascii, lines), bool, n)\n",
     "",
     "a canonical line need not be ASCII"),
    ("src/mobstats/ingest.py",
     "keep = [ok and r for ok, r in zip(keep, readable)]",
     "keep = [False] * len(keep)",
     "an unreadable number sends its whole block to parse_fields"),
    # the reader's device numbering
    ("src/mobstats/ingest.py",
     "    names = list(compress(names, accepted.tolist()))\n"
     "    for name in dict.fromkeys(names):\n"
     "        ids.setdefault(name, len(ids))\n",
     "    for name in dict.fromkeys(names):\n"
     "        ids.setdefault(name, len(ids))\n"
     "    names = list(compress(names, accepted.tolist()))\n",
     "an id is numbered before the accuracy filter"),
    ("src/mobstats/ingest.py",
     "(block if blocks else block.removeprefix(codecs.BOM_UTF8))",
     "block",
     "a BOM opening a shard stays in its first line"),
    # the generator's device-days
    ("src/mobstats/synth.py",
     "_DAY_END_S = 20 * 3600",
     "_DAY_END_S = 26 * 3600",
     "a generated day's window runs past local midnight"),
]


def stale() -> list[str]:
    """One message for each mutant whose old text does not occur exactly once."""
    errors = []
    for file, old, _, why in MUTANTS:
        n = (ROOT / file).read_text(encoding="utf-8").count(old)
        if n != 1:
            errors.append(f"{file}: the old text of {why!r} occurs {n} times, not once")
    return errors


def tier1(tree: Path, *args: str) -> tuple[int | None, str]:
    """tier-1's exit status in tree (None if it timed out) and its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([*TIER1, *args], cwd=tree, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the forked workers too
        proc.communicate()
        return None, ""


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run tier-1 against each listed mutant.")
    parser.add_argument("--check", action="store_true",
                        help="only check that each mutant's old text occurs once in its file")
    args = parser.parse_args(argv)
    errors = stale()
    for error in errors:
        print(error, file=sys.stderr)
    if errors or args.check:
        return 2 if errors else 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", ".pytest_cache", "__pycache__", "*.egg-info", ".perfbench"))
        status, out = tier1(tree, "--collect-only")
        if status != 0:
            print(out, "the unmutated tree does not collect", sep="\n", file=sys.stderr)
            return 2
        survived = 0
        for file, old, new, why in MUTANTS:
            path = tree / file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(old, new), encoding="utf-8")
            started = time.monotonic()
            status, out = tier1(tree)
            path.write_text(text, encoding="utf-8")
            # no hypothesis example outlives its mutant
            shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
            if status not in (None, 0, 1):
                print(out, f"tier-1 exited {status} on {why!r}", sep="\n", file=sys.stderr)
                return 2
            failed = [line for line in out.splitlines() if line.startswith(("FAILED", "ERROR"))]
            if status == 0:
                verdict, survived = "SURVIVED", survived + 1
            else:
                verdict = "killed, " + ("timed out" if status is None
                                        else (failed or ["failed"])[0])
            print(f"{time.monotonic() - started:6.1f} s  {file}: {why}: {verdict}", flush=True)
        print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
