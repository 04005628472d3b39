#!/usr/bin/env python3
"""Feeds malformed metrics snapshots to `tiamat-inspect bench`.

Each malformed document must be reported on stderr as
`<file>: malformed metrics section` with exit status 1 — never a crash
(a signal shows up as a negative return code here). A well-formed
document is rendered with exit 0, so the check cannot pass vacuously.

Usage: inspect_bench_malformed.py PATH/TO/tiamat-inspect
Stdlib-only; exit 0 on success, 1 on any failed case.
"""

import os
import subprocess
import sys
import tempfile

MALFORMED = {
    "counters_not_array": '{"metrics":{"counters":5}}',
    "counter_name_number":
        '{"metrics":{"counters":[{"name":5,"labels":{},"value":1}]}}',
    "counter_without_value":
        '{"metrics":{"counters":[{"name":"match.candidates","labels":{}}]}}',
    "gauge_not_object": '{"metrics":{"gauges":[7]}}',
    "sketches_not_array": '{"metrics":{"sketches":{}}}',
    "sketch_name_array": '{"metrics":{"sketches":[{"name":[]}]}}',
    "metrics_not_object": '{"metrics":[1,2]}',
}

WELL_FORMED = ('{"bench":"t","metrics":{"counters":[{"name":"match.candidates",'
               '"labels":{},"value":3}],"gauges":[],"histograms":[],'
               '"sketches":[{"name":"op.latency_us","labels":{},"count":1}]}}')


def run(inspect, path):
    return subprocess.run([inspect, "bench", path], capture_output=True,
                          text=True, check=False)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    inspect = sys.argv[1]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in sorted(MALFORMED.items()):
            path = os.path.join(tmp, name + ".json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            r = run(inspect, path)
            want = f"{path}: malformed metrics section"
            if r.returncode != 1 or want not in r.stderr:
                print(f"FAIL {name}: exit {r.returncode}, stderr "
                      f"{r.stderr.strip()!r}")
                failures += 1
            else:
                print(f"ok   {name}")
        path = os.path.join(tmp, "well_formed.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(WELL_FORMED)
        r = run(inspect, path)
        if r.returncode != 0:
            print(f"FAIL well_formed: exit {r.returncode}, stderr "
                  f"{r.stderr.strip()!r}")
            failures += 1
        else:
            print("ok   well_formed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
