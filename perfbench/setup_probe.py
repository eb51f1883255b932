"""Set-up cost of one fresh process: import nullwave, then load, validate and
materialize a scenario, as every ``nullwave run`` does before it computes.

    python3 perfbench/setup_probe.py SCENARIO_JSON CPU

The process pins itself to CPU first.  Prints one JSON line
``{"import_s", "load_s", "start", "end"}``, the last two on the
monotonic clock for the speed probe (speed.py).  Interpreter start-up is
not included.
"""

import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(path: str, cpu: int) -> int:
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = perf_counter()
    import nullwave
    t1 = perf_counter()
    scenario = nullwave.load_scenario(path)
    problems = nullwave.validate_scenario(scenario)
    if problems:
        print("invalid scenario: " + "; ".join(problems), file=sys.stderr)
        return 1
    nullwave.materialize(scenario)
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1,
                      "start": t0, "end": t2}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
