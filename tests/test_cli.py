import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from affsymp.cli import main
from affsymp.theorems import CLAIM_IDS

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src/affsymp/schemas/report.schema.json").read_text()
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate_payload(text):
    payload = json.loads(text)
    jsonschema.validate(payload, SCHEMA)
    return payload


class TestAlgebraInfo:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, ["algebra", "info", "--family", "sp", "--n", "2"])
        assert code == 0
        assert "dimension 10" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, ["algebra", "info", "--family", "g", "--n", "1", "--format", "json"]
        )
        assert code == 0
        payload = validate_payload(out)
        assert payload["dim"] == 5
        assert payload["ideal_indices"] == [0, 1]


class TestHomologyCommand:
    def test_leibniz_g1_json(self, capsys, cache_dir):
        code, out, _ = run_cli(
            capsys,
            [
                "homology", "--family", "g", "--n", "1", "--theory", "leibniz",
                "--max-degree", "5", "--format", "json", "--cache-dir", str(cache_dir),
            ],
        )
        assert code == 0
        payload = validate_payload(out)
        assert [r["betti"] for r in payload["rows"]] == [1, 0, 1, 0, 0, 0]
        assert all(r["exact"] for r in payload["rows"])

    def test_csv_header(self, capsys, cache_dir):
        code, out, _ = run_cli(
            capsys,
            [
                "homology", "--family", "sp", "--n", "1", "--theory", "lie",
                "--max-degree", "3", "--format", "csv", "--cache-dir", str(cache_dir),
            ],
        )
        assert code == 0
        assert out.splitlines()[0] == "degree,dim,rank_d,rank_d_next,betti"

    def test_unknown_family_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["homology", "--family", "q", "--n", "1", "--theory", "lie", "--max-degree", "2"],
        )
        assert code == 2
        assert "unknown family" in err

    def test_unknown_theory_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["homology", "--family", "g", "--n", "1", "--theory", "weird", "--max-degree", "2"],
        )
        assert code == 2

    def test_resource_guard_exit_three(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "homology", "--family", "g", "--n", "2", "--theory", "leibniz",
                "--max-degree", "5",
            ],
        )
        assert code == 3
        assert "resource guard" in err

    @pytest.mark.parametrize("argv", [
        ["algebra", "info", "--family", "g", "--n", "100000"],
        ["invariants", "--n", "100000", "--k-max", "1"],
        ["homology", "--family", "I", "--n", "100000000", "--theory", "lie", "--max-degree", "1"],
        ["homology", "--family", "g", "--n", "60", "--theory", "lie", "--max-degree", "1"],
    ])
    def test_a_huge_n_is_refused_before_the_algebra_is_built(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and out == ""
        assert err.startswith("resource guard: ") and err.count("\n") == 1

    def test_memory_cap_flag(self, capsys):
        code, _, _ = run_cli(
            capsys,
            [
                "homology", "--family", "g", "--n", "1", "--theory", "leibniz",
                "--max-degree", "3", "--memory-cap", "50",
            ],
        )
        assert code == 3

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_bad_memory_cap_flag_exit_two(self, capsys, value):
        code, out, err = run_cli(
            capsys,
            ["homology", "--family", "sp", "--n", "1", "--theory", "lie",
             "--max-degree", "1", "--memory-cap", value],
        )
        assert (code, out) == (2, "")
        assert "--memory-cap must be a positive integer" in err

    def test_bad_memory_cap_env_exit_two(self, capsys, monkeypatch):
        for value in ("abc", "0", "-5"):
            monkeypatch.setenv("AFFSYMP_MEMORY_CAP", value)
            code, _, err = run_cli(
                capsys,
                ["homology", "--family", "sp", "--n", "1", "--theory", "lie",
                 "--max-degree", "1"],
            )
            assert code == 2
            assert "AFFSYMP_MEMORY_CAP" in err

    def test_coeff_module_spec(self, capsys, cache_dir):
        code, out, _ = run_cli(
            capsys,
            [
                "homology", "--family", "sp", "--n", "1", "--theory", "coeff:I^2",
                "--max-degree", "3", "--format", "json", "--cache-dir", str(cache_dir),
            ],
        )
        assert code == 0
        payload = validate_payload(out)
        assert [r["betti"] for r in payload["rows"]] == [1, 0, 0, 1]

    # int() would take each of these, and every spelling would name and
    # build a complex of its own
    @pytest.mark.parametrize(
        "power", ["+1", "01", "00", " 1", "1 ", "-1", "\u0661", "\uff11", ""]
    )
    def test_noncanonical_exterior_power_exit_two(self, capsys, power):
        code, out, err = run_cli(
            capsys,
            ["homology", "--family", "sp", "--n", "1", "--theory", f"coeff:I^{power}",
             "--max-degree", "1"],
        )
        assert (code, out) == (2, "")
        assert "bad exterior power" in err

    def test_emit_cycles(self, capsys, cache_dir):
        code, out, _ = run_cli(
            capsys,
            [
                "homology", "--family", "sp", "--n", "1", "--theory", "lie",
                "--max-degree", "3", "--emit-cycles", "--format", "json",
                "--cache-dir", str(cache_dir),
            ],
        )
        assert code == 0
        payload = validate_payload(out)
        assert "cycles" in payload["rows"][3]


class TestInvariantsCommand:
    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, ["invariants", "--n", "1", "--k-max", "2", "--format", "json"]
        )
        assert code == 0
        payload = validate_payload(out)
        assert payload["passed"] is True

    def test_memory_cap_bounds_the_kernels_exit_three(self, capsys, monkeypatch):
        argv = ["invariants", "--n", "2", "--k-max", "4"]
        code, out, err = run_cli(capsys, argv + ["--memory-cap", "1"])
        assert (code, out) == (3, "")
        assert "resource guard" in err
        monkeypatch.setenv("AFFSYMP_MEMORY_CAP", "1")
        assert run_cli(capsys, argv)[0] == 3


@pytest.mark.parametrize(
    "argv",
    [["algebra", "info", "--family", "sp", "--n", "1"], ["invariants", "--n", "1", "--k-max", "2"]],
)
def test_bad_memory_cap_exit_two(capsys, monkeypatch, argv):
    for flag in ("0", "-5"):
        code, out, err = run_cli(capsys, argv + ["--memory-cap", flag])
        assert (code, out) == (2, "")
        assert "--memory-cap must be a positive integer" in err
    monkeypatch.setenv("AFFSYMP_MEMORY_CAP", "abc")
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "AFFSYMP_MEMORY_CAP" in err


class TestVerifyCommand:
    def test_single_claim(self, capsys, cache_dir):
        code, out, _ = run_cli(
            capsys,
            ["verify", "thm-4.3", "--n", "1", "--cap", "5", "--cache-dir", str(cache_dir)],
        )
        assert code == 0
        assert out.startswith("[PASS] thm-4.3")

    def test_single_claim_json(self, capsys, cache_dir):
        code, out, _ = run_cli(
            capsys,
            [
                "verify", "lemma-4.2", "--n", "1", "--format", "json",
                "--cache-dir", str(cache_dir),
            ],
        )
        assert code == 0
        payload = validate_payload(out)
        assert payload["claim"] == "lemma-4.2"

    def test_all_claims_json(self, capsys, cache_dir):
        code, out, _ = run_cli(
            capsys,
            ["verify", "all", "--n", "1", "--format", "json", "--cache-dir", str(cache_dir)],
        )
        assert code == 0
        payload = validate_payload(out)
        assert payload["report"] == "verification-suite"
        assert len(payload["reports"]) == 8

    @pytest.mark.parametrize("claim", CLAIM_IDS)
    def test_negative_cap_exit_two(self, capsys, claim):
        code, out, err = run_cli(capsys, ["verify", claim, "--n", "1", "--cap", "-1"])
        assert (code, out) == (2, "")
        assert "cap must be >= 0" in err

    @pytest.mark.parametrize("cap", ["-1", "1"])
    def test_all_rejects_cap_exit_two(self, capsys, cap):
        code, out, err = run_cli(capsys, ["verify", "all", "--n", "1", "--cap", cap])
        assert (code, out) == (2, "")
        assert "--cap" in err

    def test_unknown_claim_exit_two(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "lemma-9.9", "--n", "1"])
        assert code == 2
        assert "unknown claim" in err

    def test_beyond_envelope_exit_two(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "thm-4.3", "--n", "5"])
        assert code == 2

    def test_failing_claim_exit_one(self, capsys, monkeypatch):
        import affsymp.cli as cli_module
        from affsymp.theorems import ClaimRow, VerificationReport

        failing = VerificationReport("thm-4.3", {"n": 1})
        failing.rows.append(ClaimRow("homology", 0, 1, 0))
        monkeypatch.setattr(cli_module, "run_claim", lambda *a, **kw: failing)
        code, out, _ = run_cli(capsys, ["verify", "thm-4.3", "--n", "1"])
        assert code == 1
        assert out.startswith("[FAIL]")


class TestCacheLifecycle:
    def test_info_and_clear(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        code, out, _ = run_cli(
            capsys,
            [
                "homology", "--family", "sp", "--n", "1", "--theory", "leibniz",
                "--max-degree", "2", "--cache-dir", str(cache),
            ],
        )
        assert code == 0
        code, out, _ = run_cli(capsys, ["cache", "info", "--cache-dir", str(cache)])
        assert code == 0
        stats = json.loads(out)
        assert stats["diff"]["files"] > 0
        code, out, _ = run_cli(capsys, ["cache", "clear", "--cache-dir", str(cache)])
        assert code == 0
        code, out, _ = run_cli(capsys, ["cache", "info", "--cache-dir", str(cache)])
        assert json.loads(out)["diff"]["files"] == 0

    def test_cache_requires_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("AFFSYMP_CACHE_DIR", raising=False)
        code, _, err = run_cli(capsys, ["cache", "info"])
        assert code == 2

    @pytest.mark.parametrize("command", ["info", "clear"])
    @pytest.mark.parametrize("through", ["flag", "env"])
    def test_cache_commands_make_no_cache(self, capsys, tmp_path, monkeypatch, command, through):
        """A path that does not exist is an error naming it, and is not
        made; an empty directory reads as an empty cache and stays empty."""
        missing = tmp_path / "missing"
        argv = ["cache", command]
        if through == "flag":
            monkeypatch.delenv("AFFSYMP_CACHE_DIR", raising=False)
            code, out, err = run_cli(capsys, argv + ["--cache-dir", str(missing)])
        else:
            monkeypatch.setenv("AFFSYMP_CACHE_DIR", str(missing))
            code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(missing) in err and err.count("\n") == 1
        assert not missing.exists()
        empty = tmp_path / "empty"
        empty.mkdir()
        code, out, _ = run_cli(capsys, argv + ["--cache-dir", str(empty)])
        assert code == 0 and not any(empty.iterdir())
        if command == "info":
            assert json.loads(out)["total_bytes"] == 0

    @pytest.mark.parametrize("argv", [
        ["verify", "all", "--n", "1"],
        ["homology", "--family", "g", "--n", "1", "--theory", "lie", "--max-degree", "1"],
        ["cache", "info"],
        ["cache", "clear"],
    ])
    @pytest.mark.parametrize("through", ["flag", "env"])
    def test_unusable_cache_directory_exit_two(
        self, capsys, tmp_path, monkeypatch, argv, through
    ):
        # a directory cannot be made under a regular file
        (tmp_path / "file").write_text("")
        path = str(tmp_path / "file" / "cache")
        if through == "flag":
            monkeypatch.delenv("AFFSYMP_CACHE_DIR", raising=False)
            argv = argv + ["--cache-dir", path]
        else:
            monkeypatch.setenv("AFFSYMP_CACHE_DIR", path)
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and path in err

    def test_corrupt_rank_records_are_recomputed(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = [
            "homology", "--family", "g", "--n", "1", "--theory", "cr",
            "--max-degree", "2", "--format", "json", "--cache-dir", str(cache),
        ]
        code, cold, _ = run_cli(capsys, argv)
        assert code == 0
        records = sorted((cache / "rank").glob("*.txt"))
        assert records
        for text in ("", "0\n"):
            for record in records:
                record.write_text(text)
            code, again, _ = run_cli(capsys, argv)
            assert code == 0
            assert again == cold
            # every miss was rewritten as a valid record
            assert all(record.read_text() not in ("", "0\n") for record in records)

    def test_corrupt_matrix_records_are_rebuilt(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = [
            "homology", "--family", "g", "--n", "1", "--theory", "rel",
            "--max-degree", "2", "--emit-cycles", "--format", "json",
            "--cache-dir", str(cache),
        ]
        code, cold, _ = run_cli(capsys, argv)
        assert code == 0
        records = sorted((cache / "diff").glob("*.mtx"))
        assert records and not any((cache / "kernel").iterdir())
        good = {record: record.read_text() for record in records}

        def edited(text):
            # one more entry line, a wrong value at (0, 0); the digest is kept
            header, payload = text.split("\n", 1)
            rows, cols, nnz = payload.split("\n", 1)[0].split()
            body = payload.split("\n", 1)[1]
            return f"{header}\n{rows} {cols} {int(nnz) + 1}\n{body}0 0 7/5\n"

        for corrupt in (lambda text: "", lambda text: "garbage\n", edited):
            for record in records:
                record.write_text(corrupt(good[record]))
            code, again, err = run_cli(capsys, argv)
            assert (code, err) == (0, "")
            assert again == cold
            # every miss was rebuilt and rewritten as the original record
            assert {record: record.read_text() for record in records} == good

    @pytest.mark.parametrize("argv", [
        ["verify", "all", "--n", "1"],
        ["homology", "--family", "g", "--n", "1", "--theory", "cr", "--max-degree", "2"],
        ["cache", "clear"],
    ])
    @pytest.mark.parametrize("kind", ["rank", "diff"])
    def test_a_directory_in_place_of_a_record_exit_two(self, capsys, tmp_path, argv, kind):
        cache = tmp_path / "cache"
        fill = ["verify", "all", "--n", "1"] if argv[0] == "cache" else argv
        code, _, _ = run_cli(capsys, fill + ["--cache-dir", str(cache)])
        assert code == 0
        # the rerun reads the record as a miss, then can neither replace nor remove it
        record = sorted((cache / kind).iterdir())[0]
        record.unlink()
        record.mkdir()
        code, out, err = run_cli(capsys, argv + ["--cache-dir", str(cache)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {record}: ") and err.count("\n") == 1
        assert not list(cache.rglob("*.tmp"))

    def test_env_variable_used(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("AFFSYMP_CACHE_DIR", str(cache))
        code, _, _ = run_cli(
            capsys,
            ["homology", "--family", "sp", "--n", "1", "--theory", "leibniz", "--max-degree", "2"],
        )
        assert code == 0
        assert any((cache / "diff").iterdir())


@pytest.mark.parametrize("cap", ["2000", "20000"])
def test_entry_guard_exit_three_cold_and_warm(capsys, tmp_path, cap):
    """A block's estimate is checked before the cache is looked up, so a
    warm cache does not lift the entry guard."""
    argv = ["homology", "--family", "g", "--n", "1", "--theory", "leibniz", "--max-degree", "4"]
    guarded = argv + ["--memory-cap", cap]
    cache = ["--cache-dir", str(tmp_path)]
    assert run_cli(capsys, guarded)[0] == 3
    assert run_cli(capsys, guarded + cache)[0] == 3
    assert run_cli(capsys, argv + cache)[0] == 0
    assert any((tmp_path / "diff").iterdir()) and any((tmp_path / "rank").iterdir())
    code, _, err = run_cli(capsys, guarded + cache)
    assert code == 3 and "resource guard" in err


class TestColdWarmDeterminism:
    def test_byte_identical_payloads(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = [
            "homology", "--family", "g", "--n", "1", "--theory", "lie",
            "--max-degree", "4", "--format", "json", "--cache-dir", str(cache),
        ]
        code1, cold, _ = run_cli(capsys, argv)
        code2, warm, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert cold == warm

    def test_verify_byte_identical(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = [
            "verify", "lemma-4.2", "--n", "1", "--format", "json",
            "--cache-dir", str(cache),
        ]
        _, cold, _ = run_cli(capsys, argv)
        _, warm, _ = run_cli(capsys, argv)
        assert cold == warm


@pytest.mark.parametrize("argv", [
    # 13.7 KB, more than the stdout buffer: the write fails inside print
    ["verify", "all", "--n", "1", "--format", "json"],
    # a few lines, still buffered: the write fails at the last flush
    ["algebra", "info", "--family", "g", "--n", "1"],
])
def test_a_closed_stdout_exits_141_without_a_traceback(argv):
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "affsymp.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # before the child has computed anything to write
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=300) == 141
    assert b"Traceback" not in err
