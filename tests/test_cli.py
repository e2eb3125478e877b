import json
import subprocess
import sys
from pathlib import Path

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
MINIMAL = SCENARIO_DIR / "minimal_pair.json"


def cli(*args):
    return subprocess.run([sys.executable, "-m", "syncsim.cli", *args],
                          capture_output=True, text=True)


def test_run_writes_trace_and_metrics(tmp_path):
    trace = tmp_path / "out.trace"
    metrics = tmp_path / "out.json"
    result = cli("run", "--scenario", str(MINIMAL), "--seed", "1",
                 "--trace", str(trace), "--metrics", str(metrics))
    assert result.returncode == 0, result.stderr
    assert "sha256=" in result.stdout
    assert trace.exists() and metrics.exists()
    payload = json.loads(metrics.read_text())
    assert payload["aggregate"]["sync_rounds"] == 1


def test_run_same_seed_reproduces_trace(tmp_path):
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    out_a = cli("run", "--scenario", str(MINIMAL), "--trace", str(a))
    out_b = cli("run", "--scenario", str(MINIMAL), "--trace", str(b))
    assert out_a.stdout == out_b.stdout
    assert a.read_bytes() == b.read_bytes()


def test_validate_ok_and_failing(tmp_path):
    assert cli("validate", "--scenario", str(MINIMAL)).returncode == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "nodes": [{"id": "c1", "kind": "client"}],
        "links": [{"a": "c1", "b": "missing", "bandwidth_bps": 1e6,
                   "distance_m": 1.0}]}))
    result = cli("validate", "--scenario", str(bad))
    assert result.returncode == 1
    assert "missing" in result.stderr


def test_missing_scenario_file_is_a_named_error(tmp_path):
    missing = tmp_path / "absent.json"
    for command in ("run", "validate", "export-dot"):
        result = cli(command, "--scenario", str(missing))
        assert result.returncode == 1, (command, result.stderr)
        assert result.stderr.startswith(f"error: {missing}: cannot read"), result.stderr
        assert "Traceback" not in result.stderr


def test_analyze_clock_reports_extremum():
    result = cli("analyze-clock", "--beta=10e-6", "--gamma=-1e-10")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["t_star_s"] == 5e4
    assert payload["classification"] == "local_maximum"
    assert payload["concavity_per_s"] == -2e-10
    assert abs(payload["offset_at_t_star_s"] - 0.25) < 1e-12


def test_analyze_clock_linear_case():
    payload = json.loads(cli("analyze-clock", "--beta=1e-6", "--gamma=0").stdout)
    assert payload["has_extremum"] is False
    assert payload["classification"] == "none"


def test_export_dot_snapshot(tmp_path):
    result = cli("export-dot", "--scenario", str(MINIMAL), "--time", "1.0")
    assert result.returncode == 0
    assert result.stdout.startswith("digraph")
    assert '"c1"' in result.stdout and '"s1"' in result.stdout


def test_diff_trace_exit_codes(tmp_path):
    noisy = SCENARIO_DIR / "campus_wifi_fiber.json"
    a, b, c = tmp_path / "a.trace", tmp_path / "b.trace", tmp_path / "c.trace"
    cli("run", "--scenario", str(noisy), "--trace", str(a))
    cli("run", "--scenario", str(noisy), "--trace", str(b))
    same = cli("diff-trace", str(a), str(b))
    assert same.returncode == 0
    assert "identical" in same.stdout
    cli("run", "--scenario", str(noisy), "--seed", "5", "--trace", str(c))
    differs = cli("diff-trace", str(a), str(c))
    assert differs.returncode == 1


def test_diff_trace_against_attacked_run(tmp_path):
    base, hit = tmp_path / "base.trace", tmp_path / "hit.trace"
    mesh = SCENARIO_DIR / "mesh_attacks.json"
    clean = json.loads(mesh.read_text())
    clean["attacks"] = []
    clean_path = tmp_path / "clean.json"
    clean_path.write_text(json.dumps(clean))
    cli("run", "--scenario", str(clean_path), "--trace", str(base))
    cli("run", "--scenario", str(mesh), "--trace", str(hit))
    result = cli("diff-trace", str(base), str(hit))
    assert result.returncode == 1
    summary = json.loads(result.stdout)
    assert summary["identical"] is False
