"""Re-record ``reference.json``: default-seed digests and ``[det]`` counts.

Usage (from the repository root)::

    python3 perfbench/record.py [workload ...]

For each workload it runs the default-seed reference plan untraced and
stores its summary digest, then runs the default-seed traced plan twice
and stores the ``[det]`` counts (refusing to record counts that differ
between the two passes).  Seeds already in the file are kept.
"""

from __future__ import annotations

import json
import sys

import run
from metrics import deterministic, layer_metrics
from workloads import WORKLOADS


def record(name: str, entry: dict) -> None:
    workload = WORKLOADS[name]
    seed = entry["default_seed"]
    reference = run.execute(workload, workload.plan(seed, workload.reference_cycles))
    entry["digest"] = reference.digest()
    plan = workload.plan(seed, workload.traced_cycles)
    counts = [
        deterministic(layer_metrics(run.execute(workload, plan, traced=True)))
        for _ in range(2)
    ]
    if counts[0] != counts[1]:
        raise SystemExit(f"{name}: [det] counts differ between two passes: {counts}")
    entry["counters"] = counts[0]


def main(names) -> int:
    sys.path.insert(0, str(run.SRC))
    data = run.load_reference()
    for name in names or sorted(WORKLOADS):
        record(name, data["workloads"][name])
        run.note(f"recorded {name}: digest {data['workloads'][name]['digest']}")
    (run.HERE / "reference.json").write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
