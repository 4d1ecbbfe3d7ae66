import json

import numpy as np
import pytest
from click.testing import CliRunner

from povmforge.cli import main
from povmforge.povm import Povm, observable_from_unitary
from povmforge.serialize import povm_to_json, save_json
from povmforge.su2 import COVARIANT_TWICE_J_CAP

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


@pytest.fixture
def runner():
    return CliRunner()


def test_fiurasek_scan_passes(runner):
    result = runner.invoke(main, ["fiurasek-scan", "--n-max", "3"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("# povmforge")
    assert "seed=" in lines[1]
    assert lines[2] == "N,d,epsilon_measured,epsilon_theory,max_abs_err"
    assert len(lines) == 6
    first = lines[3].split(",")
    assert first[0] == "1" and first[1] == "2" and float(first[2]) == 1.0


def test_fiurasek_scan_deterministic(runner):
    a = runner.invoke(main, ["fiurasek-scan", "--n-max", "2", "--seed", "9"])
    b = runner.invoke(main, ["fiurasek-scan", "--n-max", "2", "--seed", "9"])
    assert a.output == b.output


def test_fiurasek_scan_tolerance_breach_fails(runner):
    result = runner.invoke(main, ["fiurasek-scan", "--n-max", "2", "--tol", "1e-20"])
    assert result.exit_code == 1


def test_fiurasek_scan_at_copy_cap(runner):
    # d stays an exact integer; the row is the 2j = 200 covariant row.
    result = runner.invoke(
        main, ["fiurasek-scan", "--n-min", "200", "--n-max", "200", "--targets", "3"]
    )
    assert result.exit_code == 0, result.output
    n, d, _, _, err = result.output.strip().splitlines()[-1].split(",")
    assert n == "200" and d == str(2**200)
    assert float(err) <= 1e-9


def test_seed_env_var(runner):
    viaflag = runner.invoke(main, ["fiurasek-scan", "--n-max", "1", "--seed", "77"])
    viaenv = runner.invoke(
        main, ["fiurasek-scan", "--n-max", "1"], env={"POVMFORGE_SEED": "77"}
    )
    assert viaflag.output == viaenv.output
    assert "seed=77" in viaenv.output


def test_covariant_scan_passes(runner):
    result = runner.invoke(main, ["covariant-scan", "--j-max", "5"])
    assert result.exit_code == 0, result.output
    rows = [l for l in result.output.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 5
    last = rows[-1].split(",")
    assert last[0] == "5" and last[1] == "6"
    assert float(last[3]) == pytest.approx(2.0 / 6.0)


def test_net_scan_writes_csv_and_json(runner, tmp_path):
    out = tmp_path / "scan.csv"
    result = runner.invoke(
        main,
        [
            "net-scan", "--eps", "1.2", "--eps", "0.8", "--eps", "0.6",
            "--budget", "400", "--samples", "300", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    text = out.read_text()
    assert text.startswith("# povmforge")
    assert "epsilon,radius,net_size,coverage_rate,seed" in text
    summary = json.loads((tmp_path / "scan.json").read_text())
    assert 1.3 <= summary["exponent"] <= 2.7
    assert summary["pass"] is True


def test_net_scan_refuses_json_out(runner, tmp_path):
    # The JSON summary would overwrite the CSV written to the same path.
    out = tmp_path / "scan.json"
    result = runner.invoke(
        main,
        ["net-scan", "--eps", "1.2", "--eps", "0.9", "--budget", "20",
         "--samples", "20", "--out", str(out)],
    )
    assert result.exit_code == 2, result.output
    assert not out.exists()


def test_net_scan_band_failure(runner):
    result = runner.invoke(
        main,
        ["net-scan", "--eps", "1.2", "--eps", "0.8", "--budget", "200",
         "--samples", "100", "--exp-min", "2.69", "--exp-max", "2.7"],
    )
    assert result.exit_code == 1


def test_exact_check_passes(runner):
    result = runner.invoke(main, ["exact-check", "--pairs", "10"])
    assert result.exit_code == 0, result.output
    rows = [l for l in result.output.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 11  # mixed-seed row plus the sampled pairs
    assert all(row.endswith(",0") for row in rows)


def test_exact_check_negative_control_rows(runner):
    result = runner.invoke(
        main, ["exact-check", "--pairs", "5", "--negative-control"]
    )
    assert result.exit_code == 0, result.output
    rows = [l for l in result.output.splitlines() if not l.startswith("#")][1:]
    controls = [row for row in rows if row.endswith(",1")]
    assert len(controls) == 5
    # Control rows report the convention mismatch, √2·|r_y| for a pure seed
    # with Bloch vector r: uniform on [0, √2], mean about 0.71.
    for row in controls:
        assert float(row.split(",")[4]) > 1e-6


@pytest.mark.parametrize(
    "args",
    [
        ["exact-check", "--pairs", "-1"],
        ["fiurasek-scan", "--n-min", "5", "--n-max", "4"],
        ["fiurasek-scan", "--n-min", "201", "--n-max", "201"],
        ["covariant-scan", "--targets", "0"],
        ["net-scan", "--eps", "3"],
        ["net-scan", "--budget", "0"],
        ["fiurasek-scan", "--seed", "-1"],
        ["fiurasek-scan", "--seed", str(2**64)],
        ["fiurasek-scan", "--tol", "-1e-9"],
        ["covariant-scan", "--tol", "-1e-9"],
        ["exact-check", "--tol", "-1e-10"],
        ["net-scan", "--min-coverage", "1.5"],
        ["net-scan", "--min-coverage", "-0.1"],
        ["net-scan", "--exp-min", "2.7", "--exp-max", "1.3"],
        *(
            [*cmd, option, value]
            for cmd, option in (
                (["fiurasek-scan", "--n-max", "2"], "--tol"),
                (["covariant-scan", "--j-max", "2"], "--tol"),
                (["exact-check", "--pairs", "2"], "--tol"),
                (["net-scan"], "--eps"),
                (["net-scan"], "--min-coverage"),
                (["net-scan"], "--exp-min"),
                (["net-scan"], "--exp-max"),
            )
            for value in ("nan", "inf", "-inf")
        ),
        # The exponent fit needs two distinct accuracies.
        ["net-scan", "--eps", "0.9"],
        ["net-scan", "--eps", "0.9", "--eps", "0.9"],
        # Beyond the covariant detector's joint-space cap.
        ["covariant-scan", "--j-max", str(COVARIANT_TWICE_J_CAP + 1)],
    ],
)
def test_bad_usage_exits_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_bad_seed_env_var_exits_2(runner, seed):
    result = runner.invoke(main, ["fiurasek-scan", "--n-max", "1"],
                           env={"POVMFORGE_SEED": seed})
    assert result.exit_code == 2, result.output


def test_distance_command(runner, tmp_path):
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    save_json(povm_to_json(observable_from_unitary(np.eye(2))), pa)
    save_json(povm_to_json(observable_from_unitary(HADAMARD)), pb)
    result = runner.invoke(main, ["distance", str(pa), str(pb)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["delta"] == pytest.approx(np.sqrt(2), abs=1e-12)
    assert payload["delta"] <= payload["sum_op_bound"] <= payload["sum_fro_bound"]
    assert payload["witness_state"]["rows"] == 2


def test_distance_identical_files(runner, tmp_path):
    pa = tmp_path / "a.json"
    save_json(povm_to_json(observable_from_unitary(HADAMARD)), pa)
    result = runner.invoke(main, ["distance", str(pa), str(pa)])
    payload = json.loads(result.output)
    assert payload["delta"] <= 1e-12


def _povm_file(path, effects):
    path.write_text(json.dumps(povm_to_json(Povm(effects))))


@pytest.mark.parametrize(
    "case", ["not_json", "incomplete", "dims", "outcomes", "effects_not_list", "re_not_list"]
)
def test_distance_bad_input_files_exit_2(runner, tmp_path, case):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    _povm_file(pa, [np.eye(2)])
    _povm_file(pb, [np.eye(2)])
    if case == "not_json":
        pa.write_text("not json")
    elif case == "incomplete":
        pa.write_text(pb.read_text().replace("1.0", "0.5"))
    elif case == "dims":
        _povm_file(pb, [np.eye(3)])
    elif case == "outcomes":
        _povm_file(pa, [np.eye(2) / 21] * 21)
        _povm_file(pb, [np.eye(2) / 21] * 21)
    elif case == "effects_not_list":
        pa.write_text(json.dumps({"dim": 2, "effects": 5}))
    else:
        obj = json.loads(pa.read_text())
        obj["effects"][0]["re"] = 3
        pa.write_text(json.dumps(obj))
    result = runner.invoke(main, ["distance", str(pa), str(pb)])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["fiurasek-scan", "--n-max", "1"],
        ["covariant-scan", "--j-max", "1"],
        ["net-scan", "--eps", "1.2", "--eps", "0.9", "--budget", "20",
         "--samples", "20"],
        ["exact-check", "--pairs", "1"],
        ["distance", "a.json", "a.json"],
    ],
)
def test_out_into_missing_directory_exits_2(runner, tmp_path, args):
    # Refused before computing, rather than failing on open() afterwards.
    pa = tmp_path / "a.json"
    save_json(povm_to_json(observable_from_unitary(HADAMARD)), pa)
    args = [str(pa) if a == "a.json" else a for a in args]
    out = tmp_path / "missing" / "x.csv"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert list(tmp_path.iterdir()) == [pa]


def test_out_file_written(runner, tmp_path):
    out = tmp_path / "fiu.csv"
    result = runner.invoke(
        main, ["fiurasek-scan", "--n-max", "2", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert out.read_text().startswith("# povmforge")
    assert "wrote" in result.output
