"""syncsim benchmark: end-to-end and per-layer metrics on seeded workloads.

    python3 perfbench/run.py --workload mesh --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --list

Run from anywhere; the program is imported from `src/` beside this
directory.  One invocation:

  1. generates the workload's scenario from --seed (workloads.py), in this
     process and in two more with different PYTHONHASHSEED values, and
     requires identical bytes;
  2. hashes the bundled demo scenarios' traces and prints any that differ
     from golden.json (reported, not counted as a failed run: a declared
     behaviour fix may change them);
  3. runs fresh worker processes one after another for about --seconds:
     with --trace 0 plain samples (end-to-end metrics), with --trace 1
     plain and traced samples in turn (per-layer metrics);
  4. counts a sample as failed when it raises, fails its output check, or
     its trace SHA-256 or simulated counts differ from the first sample's;
  5. prints one line per metric, then the result as one JSON line.

End-to-end timings are medians over samples of nominal seconds: host
seconds corrected for host speed drift by a reference kernel timed next to
every chunk of work (worker.py).  Per-layer timings are host seconds of the
traced run.  Simulated counts repeat exactly and are checked, not reported
as performance.  `--list` prints every metric with its unit, layer, and the
end-to-end metric and workload it should move (catalogue.json).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
SRC_DIR = ROOT / "src"
TIME_LIMIT_S = 170.0     # the whole invocation, including set-up
MIN_PLAIN_SAMPLES = 3

sys.path.insert(0, str(BENCH_DIR))
from workloads import GENERATORS, scenario_bytes  # noqa: E402


def load_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def child_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(extra)
    return env


def run_child(args: list[str], timeout_s: float, **env: str) -> tuple[dict | None, str]:
    """Run one child to completion; (parsed last stdout line, error text)."""
    try:
        done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=child_env(**env), timeout=max(timeout_s, 1.0),
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout_s:.0f} s"
    if done.returncode != 0:
        lines = done.stderr.strip().splitlines()
        return None, lines[-1] if lines else f"exit {done.returncode}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), ""
    except (json.JSONDecodeError, IndexError):
        return None, "no JSON result"


def generate(workload: str, seed: int, deadline: float) -> tuple[Path, str]:
    """Write the scenario file after checking that the generator is stable
    across processes with different string-hash seeds; returns (path, sha256)."""
    data = scenario_bytes(workload, seed)
    for hash_seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "workloads.py"), workload, str(seed)],
            capture_output=True, env=child_env(PYTHONHASHSEED=hash_seed),
            timeout=max(deadline - perf_counter(), 1.0), check=True)
        if done.stdout != data:
            raise RuntimeError(f"generator output for {workload} seed {seed} "
                               f"changes with PYTHONHASHSEED={hash_seed}")
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"{workload}-seed{seed}.json"
    path.write_bytes(data)
    return path, hashlib.sha256(data).hexdigest()


def check_golden(deadline: float) -> None:
    golden = load_json(BENCH_DIR / "golden.json")["scenarios"]
    demos = sorted((ROOT / "demos" / "scenarios").glob("*.json"))
    hashes, error = run_child([str(BENCH_DIR / "worker.py"), "golden",
                               *map(str, demos)], deadline - perf_counter())
    if hashes is None:
        print(f"golden: could not hash the demo scenarios: {error}")
        return
    changed = [name for name in sorted(set(golden) | set(hashes))
               if golden.get(name, {}).get("sha256") != hashes.get(name)]
    for name in changed:
        print(f"golden: {name} trace changed: expected {golden.get(name, {}).get('sha256')} "
              f"got {hashes.get(name)}")
    if not changed:
        print(f"golden: {len(hashes)} demo scenarios hash as recorded at seed and seed+1")


def sample(kind: str, scenario: Path, workload: str, seed: int, index: int,
           deadline: float) -> tuple[dict | None, str]:
    run_id = f"{workload}-seed{seed}-{kind}{index}"
    args = [str(BENCH_DIR / "worker.py"), kind, str(scenario), run_id]
    if kind == "traced":
        args.append(str(WORK_DIR / f"{workload}-seed{seed}.spans.jsonl"))
    result, error = run_child(args, deadline - perf_counter())
    if result is not None and result["problems"]:
        return None, "; ".join(result["problems"][:5])
    return result, error


def measure(scenario: Path, workload: str, seed: int, seconds: float, traced: bool,
            deadline: float) -> tuple[list[dict], list[dict], int, int]:
    """Samples until about `seconds` have passed; (plain, traced, attempted, failed)."""
    kinds = ("plain", "traced") if traced else ("plain",)
    minimum = 1 if traced else MIN_PLAIN_SAMPLES
    results: dict[str, list[dict]] = {kind: [] for kind in kinds}
    reference = None
    attempted = failed = 0
    start = perf_counter()
    while True:
        for kind in kinds:
            result, error = sample(kind, scenario, workload, seed, attempted, deadline)
            attempted += 1
            if result is not None:
                if reference is None:
                    reference = result["sim"]
                elif result["sim"] != reference:
                    result, error = None, f"simulated results differ: {result['sim']}"
            if result is None:
                failed += 1
                print(f"failed {kind} sample {attempted}: {error}")
            else:
                results[kind].append(result)
        cycles = attempted // len(kinds)
        elapsed = perf_counter() - start
        if cycles >= minimum and (elapsed + elapsed / cycles / 2 >= seconds
                                  or perf_counter() + elapsed / cycles > deadline):
            break
    with open(WORK_DIR / f"{workload}-seed{seed}.samples.json", "w", encoding="utf-8") as handle:
        json.dump(results, handle)
    if reference is not None:
        print(f"trace sha256 {reference['trace_sha256']}; events {reference['events']}; "
              f"messages {reference['message_states']}; sync reports "
              f"{reference['sync_reports']} ({reference['sync_failed']} failed)")
    return results["plain"], results.get("traced", []), attempted, failed


def spread(values: list[float]) -> str:
    return f"min {min(values):.10g} max {max(values):.10g} n={len(values)}"


def end_to_end(plain: list[dict]) -> dict[str, list[float]]:
    values = {name: [s[name] for s in plain]
              for name in ("events_per_s", "wall_s", "report_s", "peak_rss_mb")}
    values["setup_s"] = [t for s in plain for t in s["setup_s"]]
    return values


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, list[float]]:
    names = traced[0]["layer"].keys()
    values = {name: [s["layer"][name] for s in traced] for name in names}
    values["bench.trace_overhead"] = [
        statistics.median(s["wall_s"] for s in traced)
        / statistics.median(s["wall_s"] for s in plain)]
    return values


def print_catalogue(bench: dict, catalogue: dict) -> None:
    for workload in bench["workloads"]:
        print(f"workload {workload['name']}: {workload['why']}")
    for group in ("end_to_end", "per_layer"):
        for metric in bench[group]:
            entry = catalogue[metric["name"]]
            print(f"{metric['name']} [{metric['unit']}] {group}, layer {entry['layer']}, "
                  f"{entry['clock']}; moves {', '.join(entry['moves'])} on "
                  f"{', '.join(entry['on'])}: {entry['definition']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="how long to sample (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every workload and metric with its unit, then exit")
    args = parser.parse_args()
    deadline = perf_counter() + TIME_LIMIT_S
    bench = load_json(ROOT / "BENCHMARK.json")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    catalogue = load_json(BENCH_DIR / "catalogue.json")["metrics"]
    declared = [m["name"] for group in ("end_to_end", "per_layer") for m in bench[group]]
    if sorted(declared) != sorted(catalogue):
        print("error: BENCHMARK.json and catalogue.json list different metrics",
              file=sys.stderr)
        return 2
    if args.list:
        print_catalogue(bench, catalogue)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC_DIR / "syncsim" / "__init__.py").is_file():
        print(f"error: the program is missing: no syncsim package under {SRC_DIR}",
              file=sys.stderr)
        return 2

    setup_start = perf_counter()
    scenario, scenario_sha = generate(args.workload, args.seed, deadline)
    print(f"workload {args.workload} seed {args.seed}: scenario sha256 {scenario_sha} "
          f"(same under PYTHONHASHSEED 0 and 1) in {perf_counter() - setup_start:.2f} s")
    check_golden(deadline)
    plain, traced, attempted, failed = measure(
        scenario, args.workload, args.seed, seconds, bool(args.trace), deadline)
    if not plain or (args.trace and not traced):
        print("error: no sample succeeded", file=sys.stderr)
        return 1
    group = "per_layer" if args.trace else "end_to_end"
    values = per_layer(plain, traced) if args.trace else end_to_end(plain)
    metrics = {}
    for metric in bench[group]:
        name = metric["name"]
        median = statistics.median(values[name])
        metrics[name] = {"value": median, "unit": metric["unit"]}
        print(f"{name} = {median:.10g} {metric['unit']} (median; {spread(values[name])})")
    if not args.trace:
        print("host seconds before scaling (median): run "
              f"{statistics.median(s['host_run_s'] for s in plain):.4g}, report "
              f"{statistics.median(s['host_report_s'] for s in plain):.4g}, reference kernel "
              f"{statistics.median(s['host_ref_s'] for s in plain):.4g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
