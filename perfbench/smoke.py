"""Self-check of the benchmark, run from the repository root:

    python3 perfbench/smoke.py

Runs every workload once at tiny size (a few items each), untraced and
traced, and checks that the outputs pass, that each result line carries every
metric BENCHMARK.json declares with the declared unit and a finite value, and
that a perturbed reference value is counted as a failure.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import sys
import tempfile

import run

#: name prefixes of the items each workload runs in the smoke check
TINY = {
    "dual-curve": ("cli-sweep-bottleneck-example-top", "cli-sc-bound-example-0.45H"),
    "product-states": ("key-inequality-n3-0", "image-size-n3-0", "single-letter-gap-n5"),
    "oracle-sweep": ("cli-verify-alt-0", "cli-beta-r1-example"),
}
#: an item with a recorded reference, and the reference it reads
PERTURBED = ("oracle-sweep", "cli-beta-r1-example", "oracle-sweep/cli-beta-r1-example/beta_min")


def _tiny(items, prefixes):
    return [next(i for i in items if i.name.startswith(p)) for p in prefixes]


def main() -> int:
    wl = run._import_program()
    refs = run.load_references()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    workdir = tempfile.mkdtemp(prefix=".work-", dir=run.HERE)
    try:
        expect = wl.Expect(refs)
        for workload, build in wl.WORKLOADS.items():
            def tiny(pass_index, build=build, prefixes=TINY[workload]):
                return _tiny(build(run.DEFAULT_SEED, pass_index, workdir, expect), prefixes)

            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                result = run.measure(workload, run.DEFAULT_SEED, tiny, [0.1], 0, trace)
                if not result["correct"] or result["failed"]:
                    problems.append(f"{workload} trace={trace}: outputs failed their checks")
                declared = {m["name"]: m["unit"] for m in bench[section]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != declared:
                    problems.append(f"{workload} trace={trace}: metrics {got} != {declared}")
                for name, entry in result["metrics"].items():
                    if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
                        problems.append(f"{workload}: {name} = {entry['value']!r}")

        workload, item_name, ref_name = PERTURBED
        bad = copy.deepcopy(refs)
        bad["values"][ref_name] *= 1.0 + 10.0 * refs["tolerance"]
        items = [i for i in wl.WORKLOADS[workload](run.DEFAULT_SEED, 0, workdir, wl.Expect(bad))
                 if i.name == item_name]
        _, _, _, found = run._run_pass(items)
        if len(found) != 1:
            problems.append(f"perturbed reference {ref_name} was not counted as a failure")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
