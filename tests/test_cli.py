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


_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_benchmark_tracer_resolves_every_traced_function(monkeypatch):
    # perfbench/tracer.py wraps functions by module and attribute path and
    # fails a traced run on a name it cannot find; this catches a rename here
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    import hadamard6.cli  # noqa: F401  (registers every module the tracer resolves)
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


_SUBMODULES = {p.stem for p in Path(hadamard6.__file__).parent.glob("*.py")} - {"__init__"}
# elements.py and what it imports
_ELEMENTS = {"elements", "groups", "monomial", "perms"}


@pytest.mark.parametrize("argv, modules", [
    ([], {"cli"}),
    (["verify", "--only", "codes"], {"cli", "gf4", "matrices", "eisenstein", "report"}),
    # neither autgroup, brep, gf4 nor the dense layer
    (["verify", "--only", "outer"], {"cli", "outer", "report"} | _ELEMENTS),
    # neither autgroup, outer nor gf4
    (["verify", "--only", "theorem"], {"cli", "brep", "report", "matrices", "eisenstein"} | _ELEMENTS),
    (["verify"], _SUBMODULES),
], ids=["import", "codes", "outer", "theorem", "all"])
def test_each_command_runs_only_the_modules_it_reaches(argv, modules):
    # a fresh process, since this one has run every module; a registered
    # module that has not run yet is an instance of a subclass of ModuleType
    code = (
        "import contextlib, io, json, sys, types\n"
        "import hadamard6.cli\n"
        f"argv = {argv!r}\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert hadamard6.cli.main(argv) == 0\n"
        "print(json.dumps([name.split('.')[1] for name, m in sys.modules.items()\n"
        "                  if name.startswith('hadamard6.') and type(m) is types.ModuleType]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, check=True)
    assert set(json.loads(proc.stdout.splitlines()[-1])) == modules


def test_import_registers_every_module_the_tracer_reads():
    # perfbench/tracer.py reads sys.modules["hadamard6.<m>"] right after
    # importing hadamard6.cli, and wraps the functions it finds there
    code = (
        "import contextlib, io, json, sys, types\n"
        "import pytest\n"
        "import hadamard6.cli\n"
        f"for name in {sorted(_SUBMODULES - {'cli'})!r}:\n"
        "    module = sys.modules[f'hadamard6.{name}']\n"
        "    assert getattr(hadamard6, name) is module, name\n"
        "    assert type(module) is not types.ModuleType, name\n"
        "import hadamard6.autgroup\n"
        "assert callable(hadamard6.autgroup.x_bsgs)\n"
        "from hadamard6.report import Clause, Report\n"
        "stub = Report('codes', [Clause('stub', 'stubbed suite', '1', '1', True)])\n"
        "assert type(sys.modules['hadamard6.gf4']) is not types.ModuleType\n"
        "out = io.StringIO()\n"
        "with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):\n"
        "    mp.setattr(hadamard6.gf4, 'verify_codes', lambda: stub)\n"
        "    assert hadamard6.cli.main(['verify', '--only', 'codes', '--json']) == 0\n"
        "assert json.loads(out.getvalue())['suites'] == [stub.to_dict()]\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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


_ENTRIES = {
    "run": "from hadamard6.cli import run\nstatus = run()\n",
    "__main__": (
        "import runpy\n"
        "try:\n"
        "    runpy.run_module('hadamard6.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
    ),
    "main": "from hadamard6.cli import main\nstatus = main(sys.argv[1:])\n",
}


@pytest.mark.parametrize("entry, frozen", [("run", True), ("__main__", True), ("main", False)])
def test_only_the_process_entry_freezes_the_heap(entry, frozen):
    # a subprocess, so this test's own heap is never frozen
    code = (
        "import gc, sys\n"
        "sys.argv = ['hadamard6', 'verify', '--only', 'codes', '--json']\n"
        + _ENTRIES[entry]
        + "print(status, gc.get_freeze_count() > 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == f"0 {frozen}"


def test_console_script_is_the_process_entry():
    # read as text: tomllib is not in the standard library before 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert 'hadamard6 = "hadamard6.cli:run"' in pyproject.read_text()


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
    out = {}
    for name in ("intertwining_demo.py", "group_census.py"):
        proc = subprocess.run(
            [sys.executable, str(_SCRIPTS / name)],
            env=_src_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        out[name] = proc.stdout
    assert "False" not in out["intertwining_demo.py"]
    assert "True" in out["intertwining_demo.py"]
    assert "2,160" in out["group_census.py"]
    assert "39,366" in out["group_census.py"]


def test_no_command_builds_a_dense_matrix():
    # every command of scripts/reach.py, in order in one process as there,
    # once as it is and once with ExactMatrix.__init__ refusing to run
    code = (
        "import contextlib, io, json, sys\n"
        f"sys.path.insert(0, {str(_SCRIPTS)!r})\n"
        "from reach import COMMANDS\n"
        "from hadamard6 import cli, matrices\n"
        "def refuse(self, *args):\n"
        "    raise AssertionError('a command built an ExactMatrix')\n"
        "if sys.argv[1:] == ['stub']:\n"
        "    matrices.ExactMatrix.__init__ = refuse\n"
        "results = []\n"
        "for argv in COMMANDS:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "        try:\n"
        "            status = cli.main(argv)\n"
        "        except Exception as exc:\n"
        "            status = repr(exc)\n"
        "    results.append([argv, status, out.getvalue()])\n"
        "print(json.dumps(results))\n"
    )
    plain, stubbed = (
        json.loads(subprocess.run([sys.executable, "-c", code, *flag], env=_src_env(),
                                  capture_output=True, text=True, check=True).stdout)
        for flag in ([], ["stub"]))
    assert len(plain) == 16 and all(type(status) is int for _, status, _ in plain)
    assert stubbed == plain


def test_reach_allowlist_names_only_what_the_tracer_wraps(monkeypatch):
    # each entry under reach.py's tracer comment is a function that
    # perfbench/tracer.py wraps, or a method of a class it wraps a method of;
    # an entry the tracer no longer names is free to go
    monkeypatch.syspath_prepend(str(_SCRIPTS))
    monkeypatch.syspath_prepend(str(_SCRIPTS.parent / "perfbench"))
    import reach
    import tracer

    wrapped = {(module, attr) for _, module, attr, _, _ in tracer.TRACED}
    classes = {(module, attr.rpartition(".")[0]) for module, attr in wrapped if "." in attr}
    for name in reach.TRACER_NAMED:
        module, attr = name.split(".", 1)
        assert (module, attr) in wrapped or (module, attr.rpartition(".")[0]) in classes, name


def test_every_src_function_is_reached_by_a_command():
    # a subprocess: in this one, the @cache results of other tests would
    # hide the functions that compute them
    script = _SCRIPTS / "reach.py"
    proc = subprocess.run([sys.executable, str(script)], env=_src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout) == []
