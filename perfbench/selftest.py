"""Self-test of the benchmark, in smoke mode (about two minutes).

    python3 perfbench/selftest.py

Asserts that, for every workload:

* ``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json`` by
  name with its unit, in the human table and in the final JSON line;
* ``--trace 1`` prints every per-layer metric with its unit, and on a
  sim workload a layer-share table whose shares sum to 100%;
* a per-layer metric the workload cannot measure prints as ``n/a`` and
  is null in the history record: the live transport on sim workloads,
  self times on ``live_uds``, the population and batch verifier on
  ``sim_full``;
* a forced chain divergence (``--diverge``) is reported as a failure:
  exit code 1, ``"correct": false``, ``failed`` > 0 and no metric values.

It also checks that a directory holding only the benchmark's own files
makes the command fail without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, *extra: str,
        cwd: Path = ROOT) -> tuple[int, str, dict | None]:
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, proc.stdout, result


def expect_metrics(stdout: str, result: dict,
                   specs: list[dict]) -> dict[str, str]:
    """Check the metrics; return each one's printed value."""
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    assert set(result["metrics"]) == {m["name"] for m in specs}, result
    printed = {}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], (spec, metric)
        assert isinstance(metric["value"], (int, float)), metric
        row = re.compile(rf"^\s+{re.escape(spec['name'])}\s+(\S+)\s+"
                         rf"{re.escape(spec['unit'])}$", re.MULTILINE)
        match = row.search(stdout)
        assert match, f"{spec['name']} not printed with unit"
        printed[spec["name"]] = match.group(1)
    return printed


def expect_unmeasured(workload: str, printed: dict[str, str]) -> None:
    """n/a exactly where the workload cannot measure, and null in the
    history record there."""
    unmeasured = {name for name, value in printed.items() if value == "n/a"}
    if workload == "live_uds":
        assert {n for n in printed if n.endswith("self_s")} <= unmeasured
        assert not {n for n in printed if n.startswith("live.")} & unmeasured
    else:
        pool_only = {n for n in printed
                     if n.split(".")[0] in ("population", "batch_verify")}
        self_times = {n for n in printed if n.endswith("self_s")}
        assert {n for n in printed if n.startswith("live.")} <= unmeasured
        assert not (self_times - pool_only) & unmeasured, unmeasured
        if workload == "sim_full":
            assert pool_only <= unmeasured, unmeasured
        else:
            assert not pool_only & unmeasured, unmeasured
    history = HERE / "results" / "history.jsonl"
    record = json.loads(history.read_text().splitlines()[-1])
    nulls = {name for name, metric in record["metrics"].items()
             if metric["value"] is None}
    assert nulls == unmeasured, (nulls, unmeasured)


def main() -> int:
    for workload in WORKLOADS:
        code, stdout, result = run(workload, 0)
        assert code == 0, stdout
        expect_metrics(stdout, result, SPEC["end_to_end"])
        for spec in SPEC["end_to_end"]:
            assert result["metrics"][spec["name"]]["value"] > 0, spec
        print(f"ok  {workload}: end-to-end metrics printed with units")

        code, stdout, result = run(workload, 1)
        assert code == 0, stdout
        printed = expect_metrics(stdout, result, SPEC["per_layer"])
        expect_unmeasured(workload, printed)
        if workload != "live_uds":
            shares = [float(m) for m in
                      re.findall(r"([\d.]+) %$", stdout, re.MULTILINE)]
            assert shares and abs(sum(shares) - 100.0) < 0.1, shares
        print(f"ok  {workload}: per-layer metrics printed with units")

        code, stdout, result = run(workload, 0, "--diverge")
        assert code == 1, stdout
        assert result == {"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": {}}, result
        assert result["failed"] > 0, result
        assert "FAILED output checks" in stdout, stdout
        print(f"ok  {workload}: forced divergence reported as a failure")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns(
                                ".work", "results", "__pycache__"))
        code, stdout, result = run(WORKLOADS[0], 0, cwd=Path(bare))
        assert code != 0 and result is None, (code, stdout)
        print("ok  benchmark alone (no program sources) fails without "
              "a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
