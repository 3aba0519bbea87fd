"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs the benchmark on ``drift_fixed`` in fresh processes: once as it is,
and with a deliberately broken runner, either one ``Report`` check forced
false or an exception. The intact run must exit 0 with ``correct`` true and
exactly the end-to-end metrics of ``BENCHMARK.json``; each broken run must
exit nonzero with ``correct`` false, ``failed`` > 0 and no metric values.
The per-layer metrics of ``BENCHMARK.json`` must be the traced ones. Exits 0
when all cases behave.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
ARGS = ["--workload", "drift_fixed", "--seed", "1", "--seconds", "1"]

# case -> (trace flag, how run_conservation is broken or None)
CASES = {
    "intact": ("0", None),
    "check_forced_false": ("0", "forced_false"),
    "check_forced_false_traced": ("1", "forced_false"),
    "runner_raises": ("0", "raises"),
}


def child(breakage: str, trace: str) -> int:
    """Run the benchmark in this process with run_conservation broken."""
    sys.path.insert(0, HERE)
    import run
    from ounls import experiments

    original = experiments.run_conservation

    def forced_false(cfg):
        report = original(cfg)
        report.checks[0].passed = False
        return report

    def raises(cfg):
        raise FloatingPointError("runner broken on purpose")

    if breakage != "none":
        experiments.run_conservation = {"forced_false": forced_false, "raises": raises}[breakage]
    return run.main(ARGS + ["--trace", trace])


def check(case: str, trace: str, breakage) -> list:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", breakage or "none", trace],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    problems = []
    if breakage is None:
        if proc.returncode != 0 or not result.get("correct") or result.get("failed") != 0:
            problems.append("intact run not accepted")
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        printed = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
        if printed != declared:
            problems.append(f"metrics {printed} differ from BENCHMARK.json {declared}")
    else:
        if proc.returncode == 0:
            problems.append("exit code 0")
        if result.get("correct") is not False or not result.get("failed", 0) > 0:
            problems.append(f"result does not report failed checks: {result}")
        if result.get("metrics"):
            problems.append("metric values reported for an incorrect run")
    print(f"{'ok  ' if not problems else 'FAIL'} {case}: exit {proc.returncode}, "
          f"{lines[-2] if len(lines) > 1 else 'no output'}")
    for problem in problems:
        print(f"     {problem}")
    return problems


def check_layers() -> list:
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from spans import LAYER_METRICS

    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    traced = [(name, unit, better) for name, (unit, better, _) in LAYER_METRICS.items()]
    ok = declared == traced
    print(f"{'ok  ' if ok else 'FAIL'} per-layer metrics of BENCHMARK.json match the traced ones")
    return [] if ok else ["per_layer mismatch"]


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        return child(sys.argv[2], sys.argv[3])
    problems = check_layers()
    for case, (trace, breakage) in CASES.items():
        problems += check(case, trace, breakage)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
