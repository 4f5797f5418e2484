"""One cold set-up in a fresh interpreter, for the ``setup_s`` metric.

Usage: ``python3 simbench/setup_probe.py SRC_DIR SCENARIO_JSON``.  Imports
``repro``, parses the scenario, builds its activation trace and its first
simulator (partition solve and engine sessions included), then prints one
JSON line whose ``ready`` field is the ``CLOCK_MONOTONIC`` instant the
simulator was ready; the parent subtracts its own spawn instant from it.
"""

import json
import sys
import time


def main() -> None:
    src, spec = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    clock = time.perf_counter
    t0 = clock()
    from repro.scenarios import parse_scenario

    t1 = clock()
    scenario = parse_scenario(spec)
    t2 = clock()
    trace = scenario.build_trace()
    t3 = clock()
    scenario.build_simulator(trace)
    t4 = clock()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(json.dumps({
        "ready": ready,
        "import_s": t1 - t0,
        "parse_s": t2 - t1,
        "trace_s": t3 - t2,
        "build_s": t4 - t3,
    }))


if __name__ == "__main__":
    main()
