import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hadamard6
from hadamard6.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_order_y(capsys):
    code, out, _ = run(capsys, "order", "--group", "Y")
    assert code == 0
    assert out.strip() == "720"


def test_order_autstar(capsys):
    code, out, _ = run(capsys, "order", "--group", "autstar")
    assert code == 0
    assert out.strip() == "2160"


def test_order_n(capsys):
    code, out, _ = run(capsys, "order", "--group", "N")
    assert code == 0
    assert out.strip() == "59049"


def test_order_unknown_group_is_usage_error(capsys):
    code, _, _ = run(capsys, "order", "--group", "bogus")
    assert code == 2


def test_outer_apply(capsys):
    code, out, _ = run(capsys, "outer", "apply", "(1,2)")
    assert code == 0
    assert out.strip() == "(1,2)(3,6)(4,5)"


def test_outer_apply_identity(capsys):
    code, out, _ = run(capsys, "outer", "apply", "id")
    assert code == 0
    assert out.strip() == "id"


def test_outer_apply_six_cycle(capsys):
    code, out, _ = run(capsys, "outer", "apply", "(1,2,3,4,5,6)")
    assert code == 0
    assert out.strip() == "(1,2,6)(3,5)"


def test_outer_apply_parse_failure(capsys):
    code, _, err = run(capsys, "outer", "apply", "(1,99)")
    assert code == 2
    assert "error" in err


def test_outer_apply_rejects_non_ascii_digits(capsys):
    code, out, err = run(capsys, "outer", "apply", "(\u0661,\u0662)")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_outer_apply_parses_before_building_the_tables(capsys, monkeypatch):
    # bad input exits 2 without paying for (or tripping over) the S6 tables
    from hadamard6 import cli

    def build_outer():
        raise AssertionError("build_outer ran before the cycles were parsed")

    monkeypatch.setattr(cli.outer, "build_outer", build_outer)
    code, out, err = run(capsys, "outer", "apply", "(1,7)")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_outer_table_json(capsys):
    code, out, _ = run(capsys, "outer", "table")
    assert code == 0
    doc = json.loads(out)
    assert doc["generator_images"]["(1,2)"] == "(1,2)(3,6)(4,5)"
    assert len(doc["table"]) == 720


def test_hexacode_json(capsys):
    code, out, _ = run(capsys, "hexacode")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 3
    assert doc["min_distance"] == 4
    assert doc["weight_distribution"] == {"0": 1, "4": 45, "6": 18}


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--only", "bogus")
    assert code == 2


@pytest.mark.parametrize("seed, echoed", [("7", 7), ("-3", -3), ("007", 7)])
def test_verify_seed_is_echoed(capsys, seed, echoed):
    code, out, _ = run(capsys, "verify", "--only", "codes", "--json", "--seed", seed)
    assert code == 0
    assert json.loads(out)["seed"] == echoed


@pytest.mark.parametrize("seed", ["\u0667", "+7", " 7", "1_0", "-", "",
                                  pytest.param("9" * 5000, id="5000_digits")])
def test_verify_seed_takes_ascii_digits_only(capsys, seed):
    # int() would read an Arabic-Indic seven, a sign, separators and spaces,
    # and it refuses more than 4,300 digits with its own ValueError
    code, out, err = run(capsys, "verify", "--only", "codes", "--json", "--seed", seed)
    assert code == 2
    assert out == ""
    assert "usage:" in err and "--seed" in err and "Traceback" not in err
    assert "invalid int value" in err


def test_verify_codes_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--only", "codes", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"seed", "pass", "suites"}
    assert doc["pass"] is True
    suite = doc["suites"][0]
    assert set(suite) == {"suite", "pass", "clauses"}
    assert suite["suite"] == "codes"
    for clause in suite["clauses"]:
        assert set(clause) == {"id", "claim", "expected", "computed", "pass"}


def test_verify_outer_text(capsys):
    code, out, _ = run(capsys, "verify", "--only", "outer")
    assert code == 0
    assert "overall: PASS" in out
    assert "[PASS] outer.sigma_transposition" in out


def test_verify_submodule(capsys):
    code, out, _ = run(capsys, "verify", "--only", "submodule")
    assert code == 0


def test_verify_prop1_json_has_order_clause(capsys):
    code, out, _ = run(capsys, "verify", "--only", "prop1", "--json")
    assert code == 0
    doc = json.loads(out)
    clause = next(c for c in doc["suites"][0]["clauses"] if c["id"] == "order_X")
    assert clause["expected"] == "85030560"
    assert clause["pass"] is True


def test_verify_everything_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "overall: PASS" in out
    for suite in ("prop1", "prop2", "theorem", "submodule", "outer", "codes"):
        assert f"suite {suite}" in out


def test_verification_failure_gives_exit_code_one(capsys, monkeypatch):
    from hadamard6 import cli
    from hadamard6.report import Clause, Report

    failing = Report("submodule", [Clause("forced", "forced failure", "1", "2", False)])
    monkeypatch.setattr(cli.autgroup, "verify_submodule", lambda: failing)
    code, out, _ = run(capsys, "verify", "--only", "submodule")
    assert code == 1
    assert "overall: FAIL" in out
    assert "[FAIL] submodule.forced" in out


def test_suite_registry_looks_the_suite_up_at_call_time(capsys, monkeypatch):
    # a suite replaced on its module after import (as the benchmark tracer
    # does) is the one the CLI runs
    from hadamard6 import cli
    from hadamard6.report import Clause, Report

    stub = Report("codes", [Clause("stub", "stubbed suite", "1", "1", True)])
    monkeypatch.setattr(cli.gf4, "verify_codes", lambda: stub)
    code, out, _ = run(capsys, "verify", "--only", "codes", "--json")
    assert code == 0
    assert json.loads(out)["suites"] == [stub.to_dict()]


def test_missing_command_is_usage_error(capsys):
    code, _, _ = run(capsys, )
    assert code == 2


def _src_env(**extra):
    src = str(Path(hadamard6.__file__).resolve().parent.parent)
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_benchmark_tracer_resolves_every_traced_function(monkeypatch):
    # perfbench/tracer.py wraps functions by module and attribute path and
    # fails a traced run on a name it cannot find; this catches a rename here
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    import hadamard6.cli  # noqa: F401  (loads every module the tracer resolves)
    import tracer

    for _, module, attr, _, _ in tracer.TRACED:
        _, original = tracer.resolve(module, attr)
        assert callable(original), f"{module}.{attr}"


# Permutation images are bytes, whose hashes PYTHONHASHSEED salts
@pytest.mark.parametrize("suite", ["prop2", "theorem", "outer", "all"])
def test_verify_output_does_not_depend_on_hash_seed(suite):
    only = [] if suite == "all" else ["--only", suite]
    outputs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "hadamard6.cli", "verify", *only, "--json"],
            env=_src_env(PYTHONHASHSEED=hash_seed), capture_output=True, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["pass"] is True


def test_outer_table_does_not_depend_on_hash_seed():
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "hadamard6.cli", "outer", "table"],
            env=_src_env(PYTHONHASHSEED=hash_seed), capture_output=True, check=True,
        ).stdout
        for hash_seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])["table"]) == 720


def test_theorem_output_depends_on_seed_only_through_the_echo():
    docs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "hadamard6.cli", "verify", "--only", "theorem", "--json",
             "--seed", seed],
            env=_src_env(), capture_output=True, check=True,
        )
        docs.append(json.loads(proc.stdout))
    assert [d.pop("seed") for d in docs] == [1, 2]
    assert docs[0] == docs[1]
    assert docs[0]["pass"] is True


def test_theorem_suite_never_runs_the_orbit_search():
    code = (
        "from hadamard6 import autgroup, cli\n"
        "assert cli.main(['verify', '--only', 'theorem']) == 0\n"
        "print(autgroup.compute_aut_star.cache_info().misses)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0"


def test_verify_loads_no_rational_arithmetic():
    # every value the verifier needs is an Eisenstein integer; a subprocess,
    # because pytest and hypothesis import fractions into this one
    code = (
        "import sys\n"
        "from hadamard6 import cli\n"
        "assert cli.main(['verify']) == 0\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_verify_loads_no_dataclasses():
    # the records of the package are plain classes and named tuples; importing
    # dataclasses (and inspect with it) costs every process several ms
    code = (
        "import sys\n"
        "from hadamard6 import cli\n"
        "assert cli.main(['verify']) == 0\n"
        "print('dataclasses' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("argv", [["verify", "--only", "codes"], ["outer", "table"],
                                  ["hexacode"], ["order", "--group", "Y"]],
                         ids=" ".join)
def test_closed_stdout_exits_141_quietly(argv):
    # a reader that went away (`hadamard6 outer table | head -1`) is neither a
    # failed clause nor a traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "hadamard6.cli", *argv],
                              env=_src_env(), stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_demo_scripts_run():
    # the README advertises both scripts; run them as a user would
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    out = {}
    for name in ("intertwining_demo.py", "group_census.py"):
        proc = subprocess.run(
            [sys.executable, str(scripts / name)],
            env=_src_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        out[name] = proc.stdout
    assert "False" not in out["intertwining_demo.py"]
    assert "True" in out["intertwining_demo.py"]
    assert "2,160" in out["group_census.py"]
    assert "39,366" in out["group_census.py"]
