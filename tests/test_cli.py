import json

import numpy as np
import pytest

from oqwalk.cli import main

OMEGA_23 = "0.6666666666666666"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_steady_matches_closed_form(capsys):
    code, out, _ = run(capsys, "steady", "--N", "20", "--omega", OMEGA_23,
                       "--steps", "1000")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m", "simulated", "closed_form", "abs_diff"]
    assert len(rows) == 20
    assert max(float(r[3]) for r in rows) <= 1e-6


def test_steady_uniform_at_half(capsys):
    code, out, _ = run(capsys, "steady", "--N", "5", "--omega", "0.5", "--steps", "200")
    assert code == 0
    _, rows = parse_csv(out)
    for r in rows:
        assert abs(float(r[2]) - 0.2) < 1e-12


def test_steady_deterministic_bytes(capsys, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code = main(["steady", "--N", "12", "--omega", "0.7", "--steps", "500",
                     "--out", str(path)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_steady_requires_scalars(capsys):
    code, _, err = run(capsys, "steady", "--omega", "0.6")
    assert code == 2
    assert "required" in err


def test_profile_drift_estimate(capsys):
    code, out, _ = run(capsys, "profile", "--N", "100", "--omega", OMEGA_23)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "m", "P_master", "P_gaussian"]
    by_n = {}
    for n, m, pm, pg in rows:
        by_n.setdefault(int(n), {})[int(m)] = (float(pm), float(pg))
    assert sorted(by_n) == list(range(100, 501, 50))
    assert 0.25 <= by_n[300][99][0] <= 0.35
    for n, cols in by_n.items():
        total = sum(pm for pm, _ in cols.values())
        assert abs(total - 1.0) <= 1e-10
        peak_m = max(cols, key=lambda m: cols[m][1])
        assert peak_m == min(round((2 * 2 / 3 - 1) * n), 99)  # clamped to the grid


def test_channel_dephasing(capsys):
    code, out, _ = run(capsys, "channel", "dephasing", "--param", "0.3")
    assert code == 0
    report = json.loads(out)
    assert report["channel"] == "dephasing"
    assert report["trace_distance_to_analytic"] <= 1e-12
    assert report["steps_to_converge"] == 1


def test_channel_depolarizing(capsys):
    code, out, _ = run(capsys, "channel", "depolarizing", "--param", "0.4", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["trace_distance_to_analytic"] <= 1e-9


def test_channel_rejects_unknown_name(capsys):
    code, _, err = run(capsys, "channel", "amplitude-damping", "--param", "0.1")
    assert code == 2
    assert "unknown channel" in err


def test_verify_seeded_chain(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "7", "--N", "4", "--steps", "5")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["max_dilation_distance"] <= report["tolerance"]
    assert report["max_circuit_distance"] <= report["tolerance"]
    assert len(report["per_step"]) == 5


def test_verify_two_nodes_reports_stabilization(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "1", "--N", "2", "--steps", "3")
    assert code == 0
    report = json.loads(out)
    assert report["stabilization_delta"] <= 1e-12


def test_verify_rejects_tampered_spec(capsys, tmp_path):
    bad = {"N": 2, "omega": 0.6,
           "unitaries": [{"re": [[1.0, 0.0], [0.0, 0.5]], "im": [[0.0] * 2] * 2}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "verify", "--spec", str(path))
    assert code == 1
    assert "violations" in err


def test_verify_accepts_valid_spec_file(capsys, tmp_path):
    from oqwalk import core
    from oqwalk.matrixkit import haar_unitary
    rng = np.random.default_rng(5)
    chain = core.LinearChainSpec(4, 0.7, [haar_unitary(2, rng) for _ in range(3)])
    path = tmp_path / "chain.json"
    path.write_text(core.chain_to_json(chain))
    code, out, _ = run(capsys, "verify", "--spec", str(path), "--steps", "3")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_honors_tolerance_env(capsys, monkeypatch):
    monkeypatch.setenv("OQW_TOL", "1e-30")
    code, _, err = run(capsys, "verify", "--seed", "7", "--N", "4", "--steps", "2")
    assert code == 1
    assert '"pass": false' in err


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_verify_rejects_non_finite_or_negative_tolerance(capsys, monkeypatch, value):
    monkeypatch.setenv("OQW_TOL", value)
    code, out, err = run(capsys, "verify", "--seed", "7", "--N", "4", "--steps", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: OQW_TOL={value!r} must be a finite number at least 0\n"


def test_resources_table_row(capsys):
    code, out, _ = run(capsys, "resources", "--N", "4", "--omega", "0.6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,dH,G,n,dim_total,cnot_estimate,depth_estimate"
    assert "stinespring,2,4,21,1344,5376,5376" in lines
    assert "local,2,4,21,672,1344,1344" in lines
    slopes = {line.split(",")[0]: float(line.split(",")[5])
              for line in lines if line.startswith("slope_")}
    assert abs(slopes["slope_stinespring"] - 3.0) < 1e-9
    assert abs(slopes["slope_local"] - 2.0) < 1e-9


def test_resources_circuit_row_follows_cost_model(capsys):
    rows = {}
    for model in ("linear", "quadratic"):
        code, out, _ = run(capsys, "resources", "--N", "4", "--omega", "0.6",
                           "--cost-model", model)
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("circuit-")][0]
        rows[model] = line.split(",")
    assert rows["linear"][0] == "circuit-linear-ancilla"
    assert rows["quadratic"][0] == "circuit-quadratic-ancilla-free"
    # the quadratic decomposition can only be costlier, same dimensions
    assert int(rows["quadratic"][5]) > int(rows["linear"][5])
    assert rows["linear"][4] == rows["quadratic"][4] == "672"


def test_resources_eta_sets_omega(capsys):
    # eta = 0.5 gives omega = 2/3, so N=100 transits in about 300 steps
    code, out, _ = run(capsys, "resources", "--N", "100", "--eta", "0.5")
    assert code == 0
    row = [line for line in out.splitlines() if line.startswith("local,")][0]
    assert int(row.split(",")[3]) == 301  # conservative rounding of N/v + 1


def test_missing_spec_file_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--spec", "/nonexistent/chain.json")
    assert code == 2
    assert "cannot read spec file" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["steady", "--bogus"])
    assert info.value.code == 2


EYE_JSON = {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize("text, fault", [
    ("{not json", "not valid JSON"),
    (json.dumps({"omega": 0.5, "unitaries": [EYE_JSON]}), "missing the keys ['N']"),
    (json.dumps({"N": 2, "unitaries": [EYE_JSON]}), "missing the keys ['omega']"),
    (json.dumps({"N": 2, "omega": 0.5}), "missing the keys ['unitaries']"),
    (json.dumps({"N": 2, "omega": 0.5, "unitaries": []}), "got N=2 and 0 unitaries"),
    (json.dumps({"N": 4, "omega": 0.5, "unitaries": [EYE_JSON]}), "got N=4 and 1 unitaries"),
], ids=["malformed-json", "missing-N", "missing-omega", "missing-unitaries",
        "empty-unitaries", "wrong-unitary-count"])
def test_spec_file_faults_are_usage_errors(capsys, tmp_path, text, fault):
    path = tmp_path / "chain.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and fault in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, fault", [
    (["steady", "--N", "5", "--omega", "0.6", "--steps", "-5"], "--steps must be at least 0"),
    (["profile", "--N", "5", "--omega", "0.6", "--steps", "-1"],
     "--steps must be at least 1 for profile"),
    (["verify", "--N", "3", "--steps", "0"], "--steps must be at least 1"),
    (["verify", "--N", "3", "--dH", "0"], "--dH must be at least 1"),
    (["resources", "--N", "4", "--omega", "0.6", "--dH", "0"], "--dH must be at least 1"),
    (["steady", "--omega", "0.6", "--steps", "5", "--N", "1"], "--N must be at least 2"),
    (["profile", "--omega", "0.6", "--N", "1"], "--N must be at least 2"),
    (["verify", "--steps", "2", "--N", "1"], "--N must be at least 2"),
    (["resources", "--omega", "0.6", "--N", "1"], "--N must be at least 2"),
    (["resources", "--N", "4", "--omega", "0.6", "--steps", "0"], "--steps must be at least 1"),
], ids=["steady-negative-steps", "profile-negative-steps", "verify-zero-steps",
        "verify-zero-dH", "resources-zero-dH", "steady-one-node", "profile-one-node",
        "verify-one-node", "resources-one-node", "resources-zero-steps"])
def test_count_options_are_usage_errors(capsys, argv, fault):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {fault}, got {argv[-1]}\n"


def test_steady_zero_steps_prints_the_start(capsys):
    code, out, _ = run(capsys, "steady", "--N", "3", "--omega", "0.6", "--steps", "0")
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[1]) for r in rows] == [1.0, 0.0, 0.0]


def test_tampered_spec_report_lists_each_violation(capsys, tmp_path):
    # node 0's right jump and node 1's left jump carry the broken matrix;
    # the deviations are those of a per-node scan over every edge
    bad = {"N": 3, "omega": 0.6,
           "unitaries": [{"re": [[1.0, 0.0], [0.0, 0.5]], "im": [[0.0] * 2] * 2}, EYE_JSON]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = run(capsys, "verify", "--spec", str(path))
    assert code == 1
    assert out == ""
    report = json.loads(err[len("failure: "):])
    u0 = np.diag([1.0, 0.5]).astype(complex)
    jumps = {(0, 1): np.sqrt(0.6) * u0, (1, 2): np.sqrt(0.6) * np.eye(2),
             (1, 0): np.sqrt(0.4) * u0.T, (2, 1): np.sqrt(0.4) * np.eye(2),
             (0, 0): np.sqrt(0.4) * np.eye(2), (2, 2): np.sqrt(0.6) * np.eye(2)}
    expected = []
    for node in range(3):
        acc = np.zeros((2, 2), dtype=complex)
        for (src, _), b in jumps.items():
            if src == node:
                acc += b.conj().T @ b
        dev = float(np.abs(acc - np.eye(2)).max())
        if dev > 1e-10:
            expected.append({"node": node, "deviation": dev})
    assert report == {"pass": False, "violations": expected}
    assert [v["node"] for v in expected] == [0, 1]


def test_profile_zero_steps_is_usage_error(capsys):
    code, out, err = run(capsys, "profile", "--N", "5", "--omega", "0.6", "--steps", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --steps must be at least 1 for profile")
    assert err.endswith("got 0\n")


EYE3_JSON = {"re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}


@pytest.mark.parametrize("unitaries, shapes", [
    ([EYE_JSON, EYE3_JSON], "[(2, 2), (3, 3)]"),
    ([{"re": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "im": [[0.0] * 3] * 2}] * 2, "[(2, 3)]"),
], ids=["mixed-sizes", "non-square"])
def test_spec_matrix_shapes_are_usage_errors(capsys, tmp_path, unitaries, shapes):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"N": 3, "omega": 0.5, "unitaries": unitaries}))
    code, out, err = run(capsys, "verify", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err == ("error: spec unitaries must be square matrices of one size, "
                   f"got shapes {shapes}\n")


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_is_one_failure_line(capsys, tmp_path, target):
    (tmp_path / "taken").mkdir()
    out_path = tmp_path / "absent" / "x.csv" if target == "missing-dir" else tmp_path / "taken"
    code, out, err = run(capsys, "steady", "--N", "3", "--omega", "0.6", "--steps", "2",
                         "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"failure: cannot write --out {out_path}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]  # no .oqw-*.tmp left
    assert list((tmp_path / "taken").iterdir()) == []
