"""One program namespace: every consumer resolves a name through
``repro.programs.get_program``, so a query program name works wherever
a Table 2 name does, and an unknown name reads the same everywhere."""

import json

import pytest

from repro.__main__ import main
from repro.core.certificate import Certificate
from repro.programs import all_programs, get_program
from repro.query.programs import QueryProgram, all_query_programs
from repro.serve.admin import repair_cache
from repro.serve.batch import BatchJob, expand_manifest, run_batch
from repro.serve.cache import HIT, MISS, CompilationCache, compile_program_cached
from repro.serve.service import CompileService

UNKNOWN = (
    "unknown program 'nosuch'; see `python -m repro list` "
    "or `python -m repro query list`"
)


def test_lookup_spans_both_registries():
    assert [p.name for p in all_programs()] == [
        "crc32", "fasta", "fnv1a", "ip", "m3s", "sbox", "upstr", "utf8", "xorsum",
    ]
    assert len(all_query_programs()) == 8
    for program in all_programs() + all_query_programs():
        assert get_program(program.name) is program
    assert isinstance(get_program("q_filter_sum"), QueryProgram)


@pytest.mark.parametrize("name", ["nosuch", None, ["crc32"]])
def test_unknown_and_malformed_names_raise_one_key_error(name):
    with pytest.raises(KeyError) as info:
        get_program(name)
    assert info.value.args[0] == UNKNOWN.replace("'nosuch'", repr(name))


# -- CLI -----------------------------------------------------------------------


def test_cli_commands_take_query_names(capsys):
    assert main(["compile", "q_equi_join", "-O1"]) == 0
    out = capsys.readouterr().out
    assert out == get_program("q_equi_join").compile(opt_level=1).c_source() + "\n"

    assert main(["validate", "q_filter_sum", "-O1", "--trials", "5"]) == 0
    assert capsys.readouterr().out.startswith(
        "q_filter_sum: certificate ok; 5 differential trials, 0 failures"
    )

    assert main(["cert", "q_filter_sum"]) == 0
    out = capsys.readouterr().out
    assert out == get_program("q_filter_sum").compile().certificate.render() + "\n"

    assert main(["riscv", "q_total_sum", "-O1"]) == 0
    assert capsys.readouterr().out.startswith("q_total_sum: ")

    assert main(["profile", "q_total_sum", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["program"] == "q_total_sum"

    assert main(["lint", "--program", "q_filter_sum"]) == 0
    assert "program q_filter_sum@-O1" in capsys.readouterr().out


def test_query_compile_and_validate_are_the_plain_commands(capsys):
    assert main(["query", "compile", "q_any_match", "-O1"]) == 0
    via_query = capsys.readouterr()
    assert main(["compile", "q_any_match", "-O1"]) == 0
    assert capsys.readouterr() == via_query

    assert main(["query", "validate", "q_any_match", "--trials", "4"]) == 0
    via_query = capsys.readouterr()
    assert main(["validate", "q_any_match", "--trials", "4"]) == 0
    assert capsys.readouterr() == via_query


def test_query_only_actions_reject_suite_names(capsys):
    assert main(["query", "explain", "crc32"]) == 2
    assert "'crc32' is not a query program" in capsys.readouterr().err
    assert main(["query", "explain", "q_filter_sum"]) == 0
    assert "-- lowering:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "nosuch"],
        ["cert", "nosuch"],
        ["validate", "nosuch"],
        ["riscv", "nosuch"],
        ["profile", "nosuch"],
        ["lift", "lift", "nosuch"],
        ["query", "explain", "nosuch"],
        ["query", "run", "nosuch"],
        ["query", "compile", "nosuch"],
        ["lint", "--program", "nosuch"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_cli_unknown_name_message(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.removeprefix("lint: ") == UNKNOWN + "\n"


# -- Serve ---------------------------------------------------------------------


def test_serve_ops_take_query_names(tmp_path):
    program = get_program("q_filter_sum")
    expected_c = program.compile(opt_level=1).c_source()
    expected_cert = program.compile().certificate.to_dict()

    plain = CompileService()
    response = plain.handle({"op": "compile", "program": "q_filter_sum", "opt_level": 1})
    assert response["ok"] and response["cache"] == "off"
    assert response["c"] == expected_c
    cert = plain.handle({"op": "cert", "program": "q_filter_sum"})
    assert cert["ok"] and cert["certificate"] == expected_cert

    budgeted = plain.handle(
        {"op": "compile", "program": "q_filter_sum", "opt_level": 1, "fuel": 200_000}
    )
    assert budgeted["ok"] and budgeted["c"] == expected_c

    cached = CompileService(cache_dir=str(tmp_path))
    request = {"op": "compile", "program": "q_filter_sum", "opt_level": 1}
    first, second = cached.handle(request), cached.handle(request)
    assert (first["cache"], second["cache"]) == (MISS, HIT)
    assert first["c"] == second["c"] == expected_c


def test_serve_unknown_name_message():
    response = CompileService().handle({"op": "compile", "program": "nosuch"})
    assert not response["ok"] and UNKNOWN in response["error"]


def test_supervised_ops_take_query_names(tmp_path):
    from repro.serve.supervisor import Supervisor, SupervisorConfig

    program = get_program("q_equi_join")
    config = SupervisorConfig(workers=1, request_timeout=60.0)
    with Supervisor(config, cache_dir=str(tmp_path)) as pool:
        compiled = pool.submit({"op": "compile", "program": "q_equi_join"})
        cert = pool.submit({"op": "cert", "program": "q_equi_join"})
        unknown = pool.submit({"op": "compile", "program": "nosuch"})
    assert compiled["ok"] and compiled["c"] == program.compile().c_source()
    assert cert["ok"]
    assert Certificate.from_dict(cert["certificate"]).function_name == "q_equi_join"
    assert not unknown["ok"] and UNKNOWN in unknown["error"]


def test_supervisor_degrades_query_programs():
    from repro.serve.supervisor import Supervisor, SupervisorConfig

    sup = Supervisor(SupervisorConfig(workers=0))
    degraded = sup._degraded_response({"program": "q_total_sum"})
    assert degraded is not None and degraded["program"] == "q_total_sum"
    assert sup._degraded_response({"program": "nosuch"}) is None


# -- Batch and cache repair ----------------------------------------------------


def test_batch_program_jobs_take_query_names(tmp_path):
    jobs = expand_manifest(["q_filter_sum", "crc32", "nosuch"])
    report = run_batch(jobs, cache_dir=str(tmp_path))
    rows = {row["job"]: row for row in report.results}
    assert rows["q_filter_sum"]["outcome"] == "ok"
    assert rows["q_filter_sum"]["cache"] == MISS
    assert rows["crc32"]["outcome"] == "ok"
    assert rows["nosuch"]["outcome"] == "crash"
    assert UNKNOWN in rows["nosuch"]["detail"]
    # Without a cache the job runs straight through the engine.
    direct = run_batch([BatchJob(kind="program", name="q_equi_join", opt_level=1)])
    assert direct.results[0]["outcome"] == "ok"
    assert direct.results[0]["statements"] == get_program(
        "q_equi_join"
    ).compile(opt_level=1).statement_count()


def test_cache_repair_recompiles_a_query_entry(tmp_path):
    program = get_program("q_filter_sum")
    cache = CompilationCache(str(tmp_path))
    cold, outcome = compile_program_cached(cache, program, opt_level=1)
    assert outcome == MISS
    key = cache.key_for(program.build_model(), program.build_spec(), opt_level=1)
    with open(cache._path(key)) as fh:
        entry = json.load(fh)
    entry["payload_sha"] = "0" * 64
    with open(cache._path(key), "w") as fh:
        json.dump(entry, fh)

    report = repair_cache(str(tmp_path))
    assert report.clean, report.render()
    assert not report.unrepairable
    assert report.repaired == [{"key": key, "program": "q_filter_sum", "opt_level": 1}]
    warm, outcome = compile_program_cached(CompilationCache(str(tmp_path)), program,
                                           opt_level=1)
    assert outcome == HIT
    assert warm.c_source() == cold.c_source()


def test_cache_repair_unknown_name_message(tmp_path):
    program = get_program("fnv1a")
    cache = CompilationCache(str(tmp_path))
    compile_program_cached(cache, program)
    key = cache.key_for(program.build_model(), program.build_spec())
    with open(cache._path(key)) as fh:
        entry = json.load(fh)
    entry["program"] = "nosuch"
    with open(cache._path(key), "w") as fh:
        json.dump(entry, fh)
    report = repair_cache(str(tmp_path))
    assert report.unrepairable == [{"key": key, "reason": UNKNOWN}]


# -- Suite names are unchanged -------------------------------------------------


def test_suite_names_serve_the_registry_bytes(tmp_path):
    program = get_program("crc32")
    expected = program.compile(opt_level=1)
    service = CompileService(cache_dir=str(tmp_path))
    request = {"op": "compile", "program": "crc32", "opt_level": 1}
    first, second = service.handle(request), service.handle(request)
    assert (first["cache"], second["cache"]) == (MISS, HIT)
    assert first["c"] == second["c"] == expected.c_source()
    budgeted = CompileService().handle(dict(request, fuel=200_000))
    assert budgeted["cache"] == "off" and budgeted["c"] == expected.c_source()
    cert = CompileService().handle({"op": "cert", "program": "crc32"})
    assert cert["certificate"] == program.compile().certificate.to_dict()
