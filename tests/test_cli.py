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


def test_run_writes_a_delay_past_the_float_range_as_null(tmp_path):
    """A 10**20-bit message over a 5e-324 bps link takes an exact count of
    picoseconds past the float range: the metrics file stays strict JSON,
    with null for each delay no float holds."""
    data = json.loads(MINIMAL.read_text())
    data["links"] = [{**data["links"][0], "bandwidth_bps": 5e-324}]
    data["message_workload"] = [{"time_s": 0.5, "source": "c1", "destination": "s1",
                                 "size_bits": 10**20}]
    scenario, metrics = tmp_path / "slow.json", tmp_path / "out.json"
    scenario.write_text(json.dumps(data))
    result = cli("run", "--scenario", str(scenario), "--metrics", str(metrics))
    assert result.returncode == 0, result.stderr

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    delays = json.loads(metrics.read_text(), parse_constant=reject)["delays"]
    assert delays == {"host_delay_s": 0.0, "max_path_delay_s": None,
                      "mean_path_delay_s": None, "network_delay_s": None}


def test_a_trace_that_cannot_be_written_is_a_runtime_error(tmp_path):
    """A 10**4200-bit message over a 5e-324 bps link validates, and its
    delivery time is an int of more digits than Python writes as text: the
    run exits 2 with a runtime error, where it printed a traceback before."""
    data = json.loads(MINIMAL.read_text())
    data["links"] = [{**data["links"][0], "bandwidth_bps": 5e-324}]
    data["message_workload"] = [{"time_s": 0.5, "source": "c1", "destination": "s1",
                                 "size_bits": 10**4200}]
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps(data))
    assert cli("validate", "--scenario", str(scenario)).returncode == 0
    result = cli("run", "--scenario", str(scenario))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("runtime error: Exceeds the limit"), result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


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
    latin1 = tmp_path / "latin1.json"  # a UnicodeDecodeError traceback before
    latin1.write_bytes('{"config": {"name": "café"}}'.encode("latin-1"))
    for path, problem in ((missing, "cannot read"),
                          (latin1, "not UTF-8 text (invalid continuation byte at byte 24)")):
        for command in ("run", "validate", "export-dot"):
            result = cli(command, "--scenario", str(path))
            assert result.returncode == 1, (command, result.stderr)
            assert result.stderr.startswith(f"error: {path}: {problem}"), result.stderr
            assert "Traceback" not in result.stderr


def test_duplicate_link_is_a_named_error_in_every_command(tmp_path):
    data = json.loads(MINIMAL.read_text())
    link = data["links"][0]
    data["links"].append({**link, "a": link["b"], "b": link["a"], "bandwidth_bps": 1e9})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for command in ("run", "validate", "export-dot"):
        result = cli(command, "--scenario", str(bad))
        assert result.returncode == 1, (command, result.stderr)
        assert result.stderr == (f"error: links[1]: duplicate link between "
                                 f"{link['b']!r} and {link['a']!r}\n"), result.stderr


def test_a_build_problem_is_a_named_error_in_every_command(tmp_path):
    # the workload entry's only problem is its time, which `build_engine`
    # finds when the engine rejects its send: every command exits 1 with it
    data = json.loads(MINIMAL.read_text())
    data["message_workload"] = [{"time_s": -1.0, "source": "c1", "destination": "s1",
                                 "size_bits": 100}]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for command in ("run", "validate", "export-dot"):
        result = cli(command, "--scenario", str(bad))
        assert result.returncode == 1, (command, result.stderr)
        assert result.stderr == "error: message_workload[0]: time_s must be >= 0\n", (
            command, result.stderr)
        assert result.stdout == ""


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


def test_export_dot_time_that_is_not_finite_is_a_named_error():
    for time in ("inf", "nan"):
        result = cli("export-dot", "--scenario", str(MINIMAL), f"--time={time}")
        assert result.returncode == 1, (time, result.stderr)
        assert result.stderr == (f"error: --time {float(time)!r}: the snapshot instant "
                                 f"must be finite\n"), result.stderr
        assert result.stdout == ""


def test_export_dot_at_a_far_instant_draws():
    # each was "not a finite number of picoseconds" before: 1e300 s did not
    # quantize, and at 1e290 s the mesh's drifting clocks' offsets did not
    mesh = SCENARIO_DIR / "mesh_attacks.json"
    for scenario, time in ((MINIMAL, "1e300"), (mesh, "1e290")):
        result = cli("export-dot", "--scenario", str(scenario), f"--time={time}")
        assert result.returncode == 0, (time, result.stderr)
        assert result.stdout.startswith("digraph"), result.stdout


def test_export_dot_negative_time_is_a_named_error():
    for time in ("-5", "-1e-13", "-inf"):
        result = cli("export-dot", "--scenario", str(MINIMAL), f"--time={time}")
        assert result.returncode == 1, (time, result.stderr)
        assert result.stderr == (f"error: --time {float(time)!r}: the snapshot instant "
                                 f"must be >= 0 s\n"), result.stderr
        assert result.stdout == ""


def test_unwritable_output_path_is_a_named_error(tmp_path):
    path = tmp_path / "missing" / "out"
    for args in (("run", "--scenario", str(MINIMAL), "--trace", str(path)),
                 ("run", "--scenario", str(MINIMAL), "--metrics", str(path)),
                 ("export-dot", "--scenario", str(MINIMAL), "--output", str(path))):
        result = cli(*args)
        assert result.returncode == 2, (args, result.stderr)
        assert result.stderr == f"error: cannot write {path}: No such file or directory\n"


def test_diff_trace_of_a_file_that_is_not_utf8_is_a_named_error(tmp_path):
    binary, empty = tmp_path / "binary.trace", tmp_path / "empty.trace"
    binary.write_bytes(b"\xff\xfe")
    empty.write_bytes(b"")
    for args in ((binary, empty), (empty, binary)):
        result = cli("diff-trace", *map(str, args))
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith(f"error: {binary}: not UTF-8 text"), result.stderr


def test_diff_trace_names_the_file_a_parse_error_is_in(tmp_path):
    good, bad = tmp_path / "good.trace", tmp_path / "bad.trace"
    cli("run", "--scenario", str(MINIMAL), "--trace", str(good))
    bad.write_text('{"a":1}\n')
    for args in ((good, bad), (bad, good)):
        result = cli("diff-trace", *map(str, args))
        assert result.returncode == 1, result.stderr
        assert result.stderr == f"error: {bad}: line 1: missing field 'sim_time_ps'\n"


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def test_analyze_clock_non_finite_input_is_a_named_error():
    for args in (("--beta=nan", "--gamma=1e-10"), ("--beta=1e-6", "--gamma=inf"),
                 ("--beta=1e-6", "--gamma=-1e-10", "--alpha0=-inf")):
        result = cli("analyze-clock", *args)
        assert result.returncode == 1, (args, result.stdout)
        assert result.stdout == ""
        assert result.stderr.startswith("error: --"), result.stderr


def test_analyze_clock_prints_json_when_t_star_overflows():
    # finite input: t* = -1 / 2e-320 is -inf, and the offset there is nan
    result = cli("analyze-clock", "--beta=1", "--gamma=1e-320")
    assert result.returncode == 0, result.stderr
    payload = _strict_json(result.stdout)
    assert payload["t_star_s"] is None
    assert payload["offset_at_t_star_s"] is None
    assert payload["concavity_per_s"] == 2e-320
    # and 2 * gamma overflows
    payload = _strict_json(cli("analyze-clock", "--beta=1", "--gamma=1e308").stdout)
    assert payload["concavity_per_s"] is None
    assert payload["t_star_s"] == 0.0
