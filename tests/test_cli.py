"""Command line behaviour: payload shapes, exit codes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from braidcert.cli import main


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_outputs_tensor_json(capsys):
    code, out, _ = run_cli(capsys, "expand", "--n", "2", "x1 x2^-1")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2
    assert {"idx": [], "c": "1/1"} in data["terms"]
    assert {"idx": [2], "c": "-1/1"} in data["terms"]


def test_expand_respects_degree_env(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDCERT_DEGREE", "3")
    code, out, _ = run_cli(capsys, "expand", "--n", "1", "x1^-1")
    assert code == 0
    idx_lengths = {len(item["idx"]) for item in json.loads(out)["terms"]}
    assert 3 in idx_lengths  # the cube term of the geometric series survives


def test_expand_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDCERT_DEGREE", "4")
    code, out, _ = run_cli(capsys, "expand", "--n", "1", "--degree", "2", "x1^-1")
    assert code == 0
    idx_lengths = {len(item["idx"]) for item in json.loads(out)["terms"]}
    assert max(idx_lengths) == 2


@pytest.mark.parametrize("raw", ["abc", "1"])
def test_bad_degree_env_is_usage_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("BRAIDCERT_DEGREE", raw)
    code, out, err = run_cli(capsys, "expand", "--n", "2", "x1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: BRAIDCERT_DEGREE must be")


def test_tau1_payload(capsys):
    code, out, _ = run_cli(capsys, "tau1", "--n", "2", "s1")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 2
    assert {"idx": [1, 2], "c": "1/1"} in data["columns"][0]["terms"]
    assert data["columns"][1]["terms"] == []


def test_xi_lists_generator_images(capsys):
    code, out, _ = run_cli(capsys, "xi", "--n", "2", "s1")
    assert code == 0
    data = json.loads(out)
    assert data["images"] == ["x2", "x2^-1 x1 x2"]
    assert data["inverse_images"] == ["x1 x2 x1^-1", "x1"]


def test_perm_reports_purity(capsys):
    code, out, _ = run_cli(capsys, "perm", "--n", "3", "A(1,3)")
    assert code == 0
    data = json.loads(out)
    assert data["permutation"] == [1, 2, 3]
    assert data["pure"] is True


def test_braid_eq_answers_both_ways(capsys):
    code, out, _ = run_cli(capsys, "braid-eq", "--n", "3", "s1 s2 s1", "s2 s1 s2")
    assert code == 0 and json.loads(out)["equal"] is True
    code, out, _ = run_cli(capsys, "braid-eq", "--n", "3", "s1", "s2")
    assert code == 0 and json.loads(out)["equal"] is False


def test_hbar_argument_count_is_checked(capsys):
    code, _, err = run_cli(capsys, "hbar", "--n", "3", "--p", "2", "A(1,2)")
    assert code == 2
    assert "braid arguments" in err


def test_hbar_exterior_value(capsys):
    code, out, _ = run_cli(
        capsys, "hbar", "--n", "3", "--p", "2", "--exterior", "A(1,2)", "twist(3)"
    )
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 2


def test_pair_with_partition(capsys):
    code, out, _ = run_cli(
        capsys, "pair", "--n", "4", "--partition", "1,1",
        "cross:{2:torus:A(1,2)}{2:torus:A(1,2)}",
    )
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 2 and data["coords"]


def test_pair_tensor_form(capsys):
    code, out, _ = run_cli(
        capsys, "pair", "--n", "2", "--p", "1", "--form", "tensor", "torus:A(1,2)"
    )
    assert code == 0
    data = json.loads(out)
    assert {"idx": [1], "c": "1/1"} in data["terms"]
    assert {"idx": [2], "c": "1/1"} in data["terms"]


def test_independence_writes_out_file(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "independence", "--n", "3", "--q", "1", "--out", str(out_path)
    )
    assert code == 0
    on_disk = json.loads(out_path.read_text())
    assert on_disk == json.loads(out)
    assert on_disk["verdict"] == "pass"


def test_independence_unwritable_out_is_usage_error(capsys, tmp_path):
    out_path = tmp_path / "missing" / "cert.json"
    code, out, err = run_cli(
        capsys, "independence", "--n", "3", "--q", "1", "--out", str(out_path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not out_path.exists()


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_independence_rejects_catalog_depth_below_one(capsys, depth):
    code, out, err = run_cli(
        capsys, "independence", "--n", "5", "--q", "2", "--catalog-depth", depth
    )
    assert code == 2
    assert out == ""
    assert "catalog depth must be at least 1" in err


def test_check_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "lemmas")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and len(data["rows"]) == 10


def test_grammar_error_exits_2_with_stderr(capsys):
    code, out, err = run_cli(capsys, "expand", "--n", "2", "x1 y2")
    assert code == 2
    assert out == ""
    assert "position 3" in err


def test_cycle_grammar_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "pair", "--n", "3", "--p", "2", "torus:A(1,2)|A(1,3)")
    assert code == 2
    assert "commute" in err


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_repeated_invocations_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "independence", "--n", "4", "--q", "2", "--seed", "7")
    _, second, _ = run_cli(capsys, "independence", "--n", "4", "--q", "2", "--seed", "7")
    assert first == second


def test_subprocess_output_is_byte_identical():
    cmd = [sys.executable, "-m", "braidcert.cli", "check", "--suite", "independence-small"]
    runs = [
        subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["passed"] is True
