"""Command line behaviour: payload shapes, exit codes, determinism."""

from __future__ import annotations

import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import braidcert.chains as chains
import braidcert.cli as cli
import braidcert.suites as suites
from braidcert.braids import _letter_action, artin_action
from braidcert.cli import main
from braidcert.words import EndoMap


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


def test_braid_eq_composes_one_map_per_letter(capsys, monkeypatch):
    # decisions build forward maps only, never an inverse beside them
    left, right = "s1 s2^-1 s3 s1", "s3^-1 s2 s2 s1^-1 s3"
    for letter in (1, -1, 2, -2, 3, -3):
        _letter_action(4, letter)
    artin_action.cache_clear()
    calls = []
    compose = EndoMap.compose

    def counting(self, other):
        calls.append(other)
        return compose(self, other)

    monkeypatch.setattr(EndoMap, "compose", counting)
    code, out, _ = run_cli(capsys, "braid-eq", "--n", "4", left, right)
    assert code == 0 and json.loads(out)["equal"] is False
    assert len(calls) == 4 + 5


def test_hbar_argument_count_is_checked(capsys):
    code, _, err = run_cli(capsys, "hbar", "--n", "3", "--p", "2", "A(1,2)")
    assert code == 2
    assert "braid arguments" in err


@pytest.mark.parametrize("p", ["0", "-1"])
def test_hbar_degree_below_one_is_named(capsys, p):
    code, out, err = run_cli(capsys, "hbar", "--n", "3", "--p", p, "A(1,2)")
    assert (code, out, err) == (2, "", "error: degree must be at least 1\n")


@pytest.mark.parametrize("command", [
    ["expand", "--n", "-1", ""],
    ["tau1", "--n", "-1", ""],
    ["hbar", "--n", "-1", "--p", "1", ""],
    ["pair", "--n", "-1", "--p", "1", "torus:"],
])
def test_negative_rank_is_named(capsys, command):
    code, out, err = run_cli(capsys, *command)
    assert (code, out, err) == (2, "", "error: rank must be positive, got -1\n")


@pytest.mark.parametrize("size", ["0", "-1"])
def test_cross_block_size_below_one_names_its_position(capsys, size):
    code, out, err = run_cli(capsys, "pair", "--n", "3", "--p", "1", f"cross:{{{size}:torus:}}")
    assert (code, out) == (2, "")
    assert err == f"error: bad block size '{size}' (at position 7)\n"


# ASCII decimal only: a sign, an underscore or another script's digit is refused
@pytest.mark.parametrize("partition", ["+2", "2_0", "\u0662", "1,+1", "1,\u0661", "-1"])
def test_partition_parts_must_be_ascii_decimal(capsys, partition):
    code, out, err = run_cli(
        capsys, "pair", "--n", "4", "--partition", partition,
        "cross:{2:torus:A(1,2)}{2:torus:A(1,2)}",
    )
    assert (code, out, err) == (2, "", f"error: bad partition {partition!r}\n")


def test_partition_parts_may_be_padded_with_whitespace(capsys):
    padded = run_cli(
        capsys, "pair", "--n", "4", "--partition", " 1 , 1 ",
        "cross:{2:torus:A(1,2)}{2:torus:A(1,2)}",
    )
    plain = run_cli(
        capsys, "pair", "--n", "4", "--partition", "1,1",
        "cross:{2:torus:A(1,2)}{2:torus:A(1,2)}",
    )
    assert padded == plain and plain[0] == 0


def test_hbar_exterior_value(capsys):
    code, out, _ = run_cli(
        capsys, "hbar", "--n", "3", "--p", "2", "--exterior", "A(1,2)", "twist(3)"
    )
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 2


def _terms(*pairs):
    return [{"idx": list(idx), "c": c} for idx, c in pairs]


# exact outputs, recorded before HomTensor was stored flat
PINNED_OUTPUTS = [
    (
        ["hbar", "--n", "3", "--p", "2", "A(1,2)", "twist(3)"],
        {"n": 3, "terms": _terms(*(((a, b), "1/1") for a in (1, 2) for b in (1, 2, 3)))},
    ),
    (["hbar", "--n", "4", "--p", "3", "s1", "s2^-1", "s3"], {"n": 4, "terms": []}),
    (
        ["pair", "--n", "3", "--p", "2", "--form", "tensor", "torus:A(1,2)|twist(3)"],
        {"n": 3, "terms": _terms(
            ((1, 3), "1/1"), ((2, 3), "1/1"), ((3, 1), "-1/1"), ((3, 2), "-1/1")
        )},
    ),
    (
        ["pair", "--n", "5", "--partition", "2,1",
         "cross:{3:torus:A(1,2)|twist(3)}{2:torus:A(1,2)}"],
        {"n": 5, "q": 3, "coords": _terms(
            ((1, 3, 4), "2/1"), ((1, 3, 5), "2/1"), ((2, 3, 4), "2/1"), ((2, 3, 5), "2/1")
        )},
    ),
]


@pytest.mark.parametrize("argv, payload", PINNED_OUTPUTS)
def test_hbar_and_pair_outputs_are_pinned(capsys, argv, payload):
    assert run_cli(capsys, *argv) == (0, json.dumps(payload, indent=2) + "\n", "")


NESTED = "cross:{5:cross:{3:cross:{3:torus:A(1,3)|twist(3)}}{2:torus:A(1,2)}}{2:torus:A(1,2)^-1}"


def _zero(n, q):
    return json.dumps({"n": n, "q": q, "coords": []}, indent=2) + "\n"


# stdout, stderr and exit code, recorded before pair took exterior values from
# the set-partition sum; errors come in the order degree, grammar, degree
# mismatch, purity, and a degenerate torus is zero before purity is asked
PINNED_PAIRS = [
    (["--n", "2", "--p", "2", "torus:s1|s1"], 0, _zero(2, 2), ""),
    (["--n", "4", "--partition", "1,1", "torus:A(1,2)|s1 s1"], 0, _zero(4, 2), ""),
    (["--n", "2", "--p", "1", "torus:s1"],
     2, "", "error: chain support acts nontrivially on homology\n"),
    (["--n", "2", "--p", "2", "torus:A(1,2)"],
     2, "", "error: cochain degree 2 vs chain degree 1\n"),
    (["--n", "1", "--partition", "0", "torus:"],
     2, "", "error: cochain degree 0 vs chain degree 1\n"),
    (["--n", "2", "--p", "0", "torus:A(1,2)"], 2, "", "error: degree must be at least 1\n"),
    (["--n", "2", "--p", "0", "torus:zzz"], 2, "", "error: degree must be at least 1\n"),
    (["--n", "3", "--p", "2", "torus:A(1,2)|A(1,3)"],
     2, "", "error: elements at positions 0 and 1 do not commute (at position 13)\n"),
    (["--n", "7", "--p", "4", NESTED], 0, _zero(7, 4), ""),
    (["--n", "7", "--partition", "2,1,1", NESTED], 0, json.dumps({
        "n": 7, "q": 4, "coords": _terms(
            *(((1, 2, a, b), "-4/1") for a in (4, 5) for b in (6, 7)),
            *(((2, 3, a, b), "4/1") for a in (4, 5) for b in (6, 7)),
        )}, indent=2) + "\n", ""),
]


@pytest.mark.parametrize("argv, code, out, err", PINNED_PAIRS)
def test_pair_zero_and_error_outputs_are_pinned(capsys, argv, code, out, err):
    assert run_cli(capsys, "pair", *argv) == (code, out, err)


def test_exterior_pair_builds_no_bar_chain(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("exterior values build no bar chain")

    for module in (chains, cli):
        monkeypatch.setattr(module, "torus_cycle", refuse)
        monkeypatch.setattr(module, "pair", refuse)
    monkeypatch.setattr(chains.BarChain, "__init__", refuse)
    exterior = [(["pair", *argv], (code, out, err)) for argv, code, out, err in PINNED_PAIRS]
    exterior += [
        (argv, (0, json.dumps(payload, indent=2) + "\n", ""))
        for argv, payload in PINNED_OUTPUTS if argv[0] == "pair" and "tensor" not in argv
    ]
    assert len(exterior) == 11
    for argv, expected in exterior:
        assert run_cli(capsys, *argv) == expected, argv


@pytest.mark.parametrize("partition", ["1", "2,1"])
def test_partition_refuses_tensor_form(capsys, partition):
    cycle = "cross:{3:torus:A(1,2)|twist(3)}{2:torus:A(1,2)}"
    code, out, err = run_cli(
        capsys, "pair", "--n", "5", "--partition", partition, "--form", "tensor", cycle
    )
    assert (code, out) == (2, "")
    assert err == "error: --form tensor needs --p: partition values are exterior\n"
    explicit = run_cli(capsys, "pair", "--n", "5", "--partition", "2,1", "--form", "exterior", cycle)
    assert explicit == run_cli(capsys, "pair", "--n", "5", "--partition", "2,1", cycle)
    assert explicit[0] == 0 and json.loads(explicit[1])["coords"]


def test_nested_twist_torus_pairs_nonzero_at_every_degree(capsys):
    # A(1,2), twist(3), ..., twist(p + 1) commute pairwise on p + 1 strands,
    # and hbar_p is nonzero on their torus: the block rank behind each
    # diagonal entry of a certificate
    for p in range(1, 8):
        cycle = "torus:" + "|".join(["A(1,2)"] + [f"twist({k})" for k in range(3, p + 2)])
        code, out, err = run_cli(capsys, "pair", "--n", str(p + 1), "--p", str(p), cycle)
        assert (code, err) == (0, ""), p
        assert json.loads(out)["coords"], p


@pytest.mark.parametrize("row", [["--p", "8"], ["--partition", "1,1,1,1,1,1,1,1"]])
def test_eight_block_cross_pairs_in_under_a_second(capsys, row):
    # 8! = 40,320 orderings as a bar chain; the set-partition sum visits 2^8 subsets
    cycle = "cross:" + "{2:torus:A(1,2)}" * 8
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "pair", "--n", "16", *row, cycle)
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert len(json.loads(out)["coords"]) == (0 if row[0] == "--p" else 2 ** 8)


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
    assert out_path.read_bytes() == out.encode("utf-8")
    assert json.loads(out)["verdict"] == "pass"


def test_independence_unwritable_out_is_usage_error(capsys, tmp_path):
    out_path = tmp_path / "missing" / "cert.json"
    code, out, err = run_cli(
        capsys, "independence", "--n", "3", "--q", "1", "--out", str(out_path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not out_path.exists()


def test_independence_unwritable_out_fails_before_computing(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certificate computed before --out was opened")

    monkeypatch.setattr("braidcert.cli.certificate", refuse)
    code, out, err = run_cli(
        capsys, "independence", "--n", "8", "--q", "4",
        "--out", str(tmp_path / "missing" / "cert.json"),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out file")


@pytest.mark.parametrize("bad", [("--q", "5"), ("--catalog-depth", "0")])
def test_independence_argument_error_keeps_existing_out_file(capsys, tmp_path, bad):
    out_path = tmp_path / "cert.json"
    out_path.write_text("old certificate\n")
    code, out, _ = run_cli(
        capsys, "independence", "--n", "3", "--q", "1", *bad, "--out", str(out_path)
    )
    assert code == 2
    assert out == ""
    assert out_path.read_text() == "old certificate\n"


def test_independence_overwrites_longer_out_file(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    out_path.write_text("x" * 100_000)
    code, out, _ = run_cli(
        capsys, "independence", "--n", "3", "--q", "1", "--out", str(out_path)
    )
    assert code == 0
    assert json.loads(out_path.read_text()) == json.loads(out)


def test_independence_on_a_thousand_strands_passes(capsys):
    # partitions(1, 1099) once recursed once per slot, past the recursion limit
    code, out, _ = run_cli(capsys, "independence", "--n", "1100", "--q", "1")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


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


@pytest.mark.parametrize("cycle, position", [
    ("torus:A(1,2)|A(1,3)", 13),
    ("cross:{2:torus:A(1,2)}{3:torus:A(1,2)|A(1,3)}", 38),
])
def test_noncommuting_torus_names_the_later_element(capsys, cycle, position):
    code, out, err = run_cli(capsys, "pair", "--n", "5", "--p", "2", cycle)
    assert (code, out) == (2, "")
    assert err == f"error: elements at positions 0 and 1 do not commute (at position {position})\n"


def test_deeply_nested_cross_is_parsed_without_recursion(capsys):
    levels = 1000
    cycle = "cross:{1:" * levels + "torus:" + "}" * levels
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "pair", "--n", "1", "--p", "1", cycle)
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    assert json.loads(out) == {"n": 1, "q": 1, "coords": []}


def test_readme_subcommand_examples_exit_0(capsys, monkeypatch, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Subcommands", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.strip().splitlines()]
    assert len(commands) == 10
    monkeypatch.chdir(tmp_path)  # for the --out file
    for argv in commands:
        assert run_cli(capsys, *argv)[0] == 0, argv


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_repeated_invocations_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "independence", "--n", "4", "--q", "2", "--seed", "7")
    _, second, _ = run_cli(capsys, "independence", "--n", "4", "--q", "2", "--seed", "7")
    assert first == second


def test_parser_is_built_once_and_keeps_no_seed_between_calls(capsys):
    cli._build_parser.cache_clear()
    _, first, _ = run_cli(capsys, "check", "--suite", "lemmas", "--seed", "5")
    _, second, _ = run_cli(capsys, "check", "--suite", "lemmas")
    _, third, _ = run_cli(capsys, "--seed", "3", "check", "--suite", "lemmas")
    assert cli._build_parser.cache_info().misses == 1
    assert [json.loads(out)["seed"] for out in (first, second, third)] == [5, 0, 3]


def test_subprocess_output_is_byte_identical():
    cmd = [sys.executable, "-m", "braidcert.cli", "check", "--suite", "independence-small"]
    runs = [
        subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["passed"] is True


def test_failing_suite_exits_1_and_names_the_failing_case(capsys, monkeypatch):
    real = suites.tau1
    monkeypatch.setattr(suites, "tau1", lambda theta, g: 2 * real(theta, g))
    code, out, err = run_cli(capsys, "check", "--suite", "lemmas")
    assert code == 1
    assert "suite lemmas failed" in err
    data = json.loads(out)
    assert data["passed"] is False
    row = next(r for r in data["rows"] if r["name"] == "elementary-generators-n2")
    assert (row["cases"], row["passed"], row["witness"]) == (1, False, "s_1 at n=2")
