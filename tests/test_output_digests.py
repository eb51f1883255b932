"""Committed sha256 digests of the shipped scenarios' run outputs.

`nullwave run` on membrane_pulse, linear_check and background_only writes
report.json, state.csv and frame.csv.  output_digests.json pins their
sha256 digests, with the numpy version and the platform that produced
them, so a change that moves any output byte fails here.  A change that
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

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("output_digests.json")
SCENARIOS = ("membrane_pulse", "linear_check", "background_only")
FILES = ("report.json", "state.csv", "frame.csv")


def environment():
    """The numpy version and the platform, as output_digests.json keeps
    them."""
    return {"numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def output_digests(out_dir: Path) -> dict:
    """{"scenario/file": sha256} of `nullwave run` on the shipped
    scenarios, run into out_dir."""
    digests = {}
    for name in SCENARIOS:
        run_dir = out_dir / name
        code = cli.main(["run", str(ROOT / "scenarios" / f"{name}.json"),
                         "--out", str(run_dir)])
        assert code == 0, f"nullwave run {name} exited {code}"
        for fname in FILES:
            digests[f"{name}/{fname}"] = hashlib.sha256(
                (run_dir / fname).read_bytes()).hexdigest()
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
