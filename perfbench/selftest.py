"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics run.py emits, that every
workload emits every metric with its unit in both modes, and that the output
checks reject a corrupted orders file and a wrong eval aggregate. Exits 0
when everything holds.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads
from checks import CheckError, check_workload, read_jsonl


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_manifest() -> None:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        _expect(listed == table, f"BENCHMARK.json {key} differs from run.py")
    _expect({w["name"] for w in manifest["workloads"]} == set(workloads.SHAPES),
            "BENCHMARK.json workloads differ from workloads.py")


def check_metrics_emitted() -> None:
    for name, shape in workloads.SHAPES.items():
        for trace, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            outcome = run.run(name, 3, 0.1, trace, shape=workloads.tiny(shape))
            _expect(outcome["correct"], f"{name} trace={trace}: checks failed")
            emitted = {k: v["unit"] for k, v in outcome["metrics"].items()}
            _expect(emitted == table, f"{name} trace={trace}: metrics differ from the table")
            print(f"ok  {name} trace={int(trace)}: {len(emitted)} metrics")


def _rewrite(path, header, rows) -> None:
    lines = ([header] if header else []) + rows
    path.write_text("".join(json.dumps(r) + "\n" for r in lines))


def _rejects(workdir, plan, inputs, shape, what: str) -> None:
    try:
        check_workload(workdir, plan, inputs, shape.budget, workloads.ANLS_TAU,
                       workloads.DATASET, 3)
    except CheckError as exc:
        print(f"ok  {what} rejected: {str(exc).splitlines()[0]}")
        return
    raise AssertionError(f"{what} passed the output check")


def check_corruption_caught() -> None:
    shape = workloads.tiny(workloads.SHAPES["raster_dense"])
    workdir = run.ROOT / ".perfbench_work" / "selftest"
    try:
        outcome = run.run("raster_dense", 3, 0.1, False, shape=shape, keep=workdir)
        _expect(outcome["correct"], "tiny raster_dense run failed its checks")
        plan = workloads.stage_plan("raster_dense", 3)
        inputs = {k: workdir / f"{k}.{ext}" for k, ext in
                  (("corpus", "jsonl"), ("qa", "jsonl"), ("datasets", "json"))}

        orders = workdir / "orders.jsonl"
        pristine = orders.read_text()
        header, rows = read_jsonl(orders)
        perm = rows[0]["permutation"]
        perm[0], perm[1] = perm[1], perm[0]
        _rewrite(orders, header, rows)
        _rejects(workdir, plan, inputs, shape, "corrupted orders file")
        orders.write_text(pristine)

        evals = workdir / "eval.jsonl"
        header, rows = read_jsonl(evals)
        header["aggregate"] += 1.0
        _rewrite(evals, header, rows)
        _rejects(workdir, plan, inputs, shape, "wrong eval aggregate")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    check_manifest()
    check_metrics_emitted()
    check_corruption_caught()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
