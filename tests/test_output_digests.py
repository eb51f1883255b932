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

and names each changed value, with its size, in CHANGES.md.
"""

import hashlib
import json
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = dict(environment(), sha256=output_digests(Path(tmp)))
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
