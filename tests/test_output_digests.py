"""Committed sha256 digests of the shipped scenarios' run outputs.

`nullwave run` on membrane_pulse, linear_check and background_only writes
report.json, state.csv and frame.csv, and `nullwave sweep` of
membrane_pulse over eps_grid writes those for each of its runs plus
summary.csv and grid.json.  output_digests.json pins the sha256 digest of
every one of these files (not the wall-clock timings.json), with the numpy
version and the platform that produced them, so a change that moves any
output byte fails here.  A change that
moves an output on purpose regenerates the file,

    PYTHONPATH=src python tests/test_output_digests.py

and names each changed value, with its size, in CHANGES.md.  To find
those values, keep the outputs of both versions and compare them:

    PYTHONPATH=src python tests/test_output_digests.py --keep OLD
    (change the code)
    PYTHONPATH=src python tests/test_output_digests.py --keep NEW
    PYTHONPATH=src python tests/test_output_digests.py --diff OLD NEW

--keep writes the runs into its directory, which must not exist yet,
instead of a temporary one (and rewrites the digests as before); --diff prints each report.json leaf that
differs, with its old and new value and relative change, and each CSV
column that differs, with its max |delta| and the number of rows that
differ.
"""

import argparse
import csv
import hashlib
import json
import math
import platform
import tempfile
from pathlib import Path

import numpy as np

from nullwave import cli

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
DIGESTS = Path(__file__).with_name("output_digests.json")
SCENARIOS = ("membrane_pulse", "linear_check", "background_only")
SWEEP = ("membrane_pulse", "eps_grid")  # (template, grid)
FILES = ("report.json", "state.csv", "frame.csv")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment():
    """The numpy version and the platform, as output_digests.json keeps
    them."""
    return {"numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def output_digests(out_dir: Path) -> dict:
    """{"scenario/file": sha256} of `nullwave run` on the shipped
    scenarios and {"sweep/path": sha256} of the shipped sweep, run into
    out_dir."""
    digests = {}
    for name in SCENARIOS:
        run_dir = out_dir / name
        code = cli.main(["run", str(SCENARIO_DIR / f"{name}.json"),
                         "--out", str(run_dir)])
        assert code == 0, f"nullwave run {name} exited {code}"
        for fname in FILES:
            digests[f"{name}/{fname}"] = sha256(run_dir / fname)
    sweep_dir = out_dir / "sweep"
    code = cli.main(["sweep", str(SCENARIO_DIR / f"{SWEEP[0]}.json"),
                     str(SCENARIO_DIR / f"{SWEEP[1]}.json"),
                     "--out", str(sweep_dir)])
    assert code == 0, f"nullwave sweep {' '.join(SWEEP)} exited {code}"
    for path in sorted(sweep_dir.rglob("*")):
        if path.is_file() and path.name != "timings.json":
            digests[f"sweep/{path.relative_to(sweep_dir).as_posix()}"] = \
                sha256(path)
    return digests


def test_shipped_outputs_match_the_committed_digests(tmp_path):
    pinned = json.loads(DIGESTS.read_text())
    got = output_digests(tmp_path)
    assert set(got) == set(pinned["sha256"])
    changed = sorted(k for k, v in got.items() if v != pinned["sha256"][k])
    env = environment()
    mismatch = [f"{key} {pinned[key]} there, {env[key]} here"
                for key in env if env[key] != pinned[key]]
    why = ("the environment differs: " + "; ".join(mismatch) if mismatch
           else f"under the same numpy and platform ({env['numpy']}, "
                f"{env['platform']}): the code moved them")
    assert not changed, (f"{DIGESTS.name} pins other bytes for "
                         f"{', '.join(changed)}; {why}")


def test_diff_names_changed_leaves_and_columns(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for root, x, rows in ((old, 1.0, "0.5,1\r\n0.25,2\r\n"),
                          (new, 1.5, "0.5,1\r\n0.125,2\r\n")):
        (root / "run").mkdir(parents=True)
        (root / "run" / "report.json").write_text(json.dumps(
            {"stages": {"march": {"sup": x, "ok": True}}, "n": [1, 2]}))
        (root / "run" / "state.csv").write_text("a,b\r\n" + rows)
        (root / "run" / "timings.json").write_text(json.dumps({"s": x}))
    (new / "extra.csv").write_text("a\r\n1\r\n")
    assert diff_outputs(old, new) == [
        f"extra.csv: only in {new}",
        "run/report.json",
        "  stages.march.sup: 1.0 -> 1.5 (0.5 relative)",
        "run/state.csv",
        "  1 of 2 rows differ",
        "  a: 1 values, max |delta| 0.12",
    ]
    assert diff_outputs(old, old) == []


def _leaves(node, path=""):
    """{"a.b.0": value} of every leaf of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {path: node}
    out = {}
    for key, value in items:
        out.update(_leaves(value, f"{path}.{key}" if path else str(key)))
    return out


def _relative(old, new) -> str:
    """|new - old| / |old| of two numbers, or "" for anything else."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (old, new))
    if not numbers or old == 0 or not math.isfinite(old - new):
        return ""
    return f" ({abs(new - old) / abs(old):.2g} relative)"


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


def diff_report(old: Path, new: Path) -> list:
    """One line per report.json leaf that differs between old and new."""
    a, b = (_leaves(json.loads(p.read_text())) for p in (old, new))
    return [f"  {key}: {a.get(key, '(absent)')!r} -> "
            f"{b.get(key, '(absent)')!r}{_relative(a.get(key), b.get(key))}"
            for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]


def diff_csv(old: Path, new: Path) -> list:
    """The number of rows of a CSV that differ, and one line per column
    that differs, with its max |delta| where both values are numbers."""
    (head_a, *rows_a), (head_b, *rows_b) = (
        list(csv.reader(p.read_text().splitlines())) for p in (old, new))
    if head_a != head_b or len(rows_a) != len(rows_b):
        return [f"  header or row count differs: {len(head_a)} columns, "
                f"{len(rows_a)} rows -> {len(head_b)} columns, "
                f"{len(rows_b)} rows"]
    pairs = [(ra, rb) for ra, rb in zip(rows_a, rows_b) if ra != rb]
    lines = [f"  {len(pairs)} of {len(rows_a)} rows differ"]
    for c, name in enumerate(head_a):
        moved = [(ra[c], rb[c]) for ra, rb in pairs if ra[c] != rb[c]]
        if not moved:
            continue
        deltas = [abs(y - x) for x, y in
                  ((_float(p), _float(q)) for p, q in moved)
                  if x is not None and y is not None]
        size = f"max |delta| {max(deltas):.2g}" if deltas else "not numbers"
        lines.append(f"  {name}: {len(moved)} values, {size}")
    return lines


def diff_outputs(old_dir: Path, new_dir: Path) -> list:
    """What differs between two output trees written by --keep."""
    files = sorted({p.relative_to(d).as_posix() for d in (old_dir, new_dir)
                    for p in d.rglob("*")
                    if p.is_file() and p.name != "timings.json"})
    lines = []
    for rel in files:
        old, new = old_dir / rel, new_dir / rel
        if not (old.is_file() and new.is_file()):
            lines.append(f"{rel}: only in "
                         f"{old_dir if old.is_file() else new_dir}")
        elif old.read_bytes() != new.read_bytes():
            lines.append(rel)
            if rel.endswith(".json"):
                lines += diff_report(old, new)
            elif rel.endswith(".csv"):
                lines += diff_csv(old, new)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Rewrite tests/output_digests.json, or compare two "
                    "kept output trees.")
    parser.add_argument("--keep", metavar="DIR", type=Path,
                        help="write the runs into DIR, not a temporary "
                             "directory")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"), type=Path,
                        help="print what differs between two --keep trees")
    args = parser.parse_args(argv)
    if args.diff:
        print("\n".join(diff_outputs(*args.diff)) or "no output differs")
        return
    if args.keep:
        if args.keep.exists():
            parser.error(f"--keep {args.keep}: already exists")
        digests = output_digests(args.keep)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            digests = output_digests(Path(tmp))
    record = dict(environment(), sha256=digests)
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    main()
