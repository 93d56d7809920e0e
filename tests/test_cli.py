import cmath
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import onionclass

from onionclass.cli import main
from onionclass.documents import parse_state_document, state_document
from onionclass import (
    apply_local,
    class_catalog,
    classify,
    critical_point_search,
    float_state,
    from_terms,
    hyperdet,
    local_operators,
    random_state,
    to_float,
)
from onionclass.errors import DocumentInvalid
from onionclass.selftest import rand_invertible


def _run(args, stdin=None):
    return CliRunner().invoke(main, args, input=stdin)


def _cli_env():
    """A subprocess environment that imports this checkout's package."""
    return dict(os.environ, PYTHONPATH=str(Path(onionclass.__file__).parents[1]))


def _ghz_doc():
    zero = ["0/1", "0/1"]
    one = ["1/1", "0/1"]
    return json.dumps(
        {"format": [2, 2, 2], "mode": "exact", "amplitudes": [one] + [zero] * 6 + [one]}
    )


def test_classify_ghz_document():
    result = _run(["classify"], stdin=_ghz_doc())
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["name"] == "GHZ"
    assert payload["onion_level"] == 0
    assert payload["local_ranks"] == [2, 2, 2]


def test_format_mismatch_exits_2():
    doc = json.dumps(
        {"format": [2, 2, 2], "mode": "exact", "amplitudes": [["1/1", "0/1"]] * 7}
    )
    result = _run(["classify"], stdin=doc)
    assert result.exit_code == 2
    payload = json.loads(result.output)
    assert payload["error"] == "FormatMismatch"


def test_unsupported_format_exits_3():
    doc = json.dumps(
        {
            "format": [2, 2, 2, 2, 2],
            "mode": "exact",
            "amplitudes": [["1/1", "0/1"]] + [["0/1", "0/1"]] * 31,
        }
    )
    result = _run(["classify"], stdin=doc)
    assert result.exit_code == 3
    assert json.loads(result.output)["error"] == "UnsupportedFormat"


def test_malformed_documents_never_panic():
    for bad in [
        "not json at all",
        json.dumps({"format": [2, 2]}),
        json.dumps({"format": [2, 2], "mode": "exact", "amplitudes": [["1/1", "0/1"], [1.0, 0.0], ["0/1", "0/1"], ["0/1", "0/1"]]}),
        json.dumps({"format": [2, 2], "mode": "float", "amplitudes": [["1/1", "0/1"]] * 4}),
        json.dumps({"format": [2, 2], "mode": "maybe", "amplitudes": []}),
        json.dumps({"format": "nope", "mode": "float", "amplitudes": []}),
        json.dumps({"format": [2, 2], "mode": "float", "amplitudes": [[1, 0]] * 4, "seed": "7"}),
        json.dumps({"format": [2, 2], "mode": "float", "amplitudes": [[1, 0]] * 4, "seed": 1.5}),
        json.dumps({"format": [2, 2], "mode": "float", "amplitudes": [[1, 0]] * 4, "seed": True}),
        json.dumps({"format": [2, 2], "mode": "float", "amplitudes": [[float("nan"), 0]] + [[1, 0]] * 3}),
        json.dumps({"format": [2, 2], "mode": "float", "amplitudes": [[1, 0]] * 3 + [[0, float("inf")]]}),
        json.dumps({"format": [], "amplitudes": [[1, 0]], "mode": "float"}),
    ]:
        result = _run(["classify"], stdin=bad)
        assert result.exit_code == 2, bad
        assert json.loads(result.output)["error"]


def test_hyperdet_bell():
    doc = json.dumps(
        {
            "format": [2, 2],
            "mode": "exact",
            "amplitudes": [["1/1", "0/1"], ["0/1", "0/1"], ["0/1", "0/1"], ["1/1", "0/1"]],
        }
    )
    result = _run(["hyperdet"], stdin=doc)
    payload = json.loads(result.output)
    assert payload == {"defined": True, "value": "1/1", "degree": 2, "format": [2, 2]}


def test_hyperdet_float_degree24_warning():
    def doc(terms, scale):
        amps = [[0.0, 0.0]] * 16
        for index, value in terms.items():
            amps[int(index, 2)] = [scale * value, 0.0]
        return json.dumps({"format": [2, 2, 2, 2], "mode": "float", "amplitudes": amps})

    ghz4 = {"0000": 1, "1111": 1}
    generic = {"0000": 2, "1111": 2, "0011": 1, "1100": 1, "0101": 1, "1010": 1, "0110": 1, "1001": 1}
    # the band is relative: a large-norm degenerate state still warns, a
    # small-norm generic one does not
    assert "warning" in json.loads(_run(["hyperdet"], stdin=doc(ghz4, 10.0)).output)
    assert "warning" not in json.loads(_run(["hyperdet"], stdin=doc(generic, 0.1)).output)


def test_hyperdet_polygon_violation():
    doc = json.dumps(
        {
            "format": [4, 2, 2],
            "mode": "exact",
            "amplitudes": [["1/1", "0/1"]] + [["0/1", "0/1"]] * 15,
        }
    )
    payload = json.loads(_run(["hyperdet"], stdin=doc).output)
    assert payload["defined"] is False
    assert payload["value"] == "1/1"


def test_reachable_command():
    assert json.loads(_run(["reachable", "GHZ", "B2"]).output)["reachable"] is True
    assert json.loads(_run(["reachable", "GHZ", "W"]).output)["reachable"] is False
    result = _run(["reachable", "GHZ", "NOPE"])
    assert result.exit_code == 2


def test_random_round_trip_byte_stable():
    first = _run(["random", "2x2x2", "--seed", "7"]).output
    second = _run(["random", "2x2x2", "--seed", "7"]).output
    assert first == second
    doc = json.loads(first)
    assert doc["seed"] == 7
    state = parse_state_document(doc)
    assert dict(state_document(state), seed=7) == doc
    # the emitted document classifies as is, seed key included
    reclassified = _run(["classify"], stdin=first)
    assert reclassified.exit_code == 0
    assert json.loads(reclassified.output)["name"] == "GHZ"


def test_random_bad_dimension_exits_2():
    # a separate process with a timeout, so a draw loop that never ends fails the test
    env = _cli_env()
    for spec, mode in [("2x0", "exact"), ("2x-2", "exact"), ("2x0", "float")]:
        result = subprocess.run(
            [sys.executable, "-m", "onionclass.cli", "random", spec, "--seed", "1", "--mode", mode],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert result.returncode == 2, (spec, mode, result.stderr)
        assert json.loads(result.stdout)["error"] == "BadDimension"


def test_negative_seed_exits_2():
    env = _cli_env()
    doc = json.dumps(state_document(to_float(from_terms((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1}))))
    for args in [
        ["random", "2x2", "--seed", "-1", "--mode", "float"],
        ["random", "2x2", "--seed", "-1", "--mode", "exact"],
        ["oracle", "--seed", "-3", "--restarts", "4"],
    ]:
        result = subprocess.run(
            [sys.executable, "-m", "onionclass.cli", *args],
            input=doc, capture_output=True, text=True, timeout=30, env=env,
        )
        assert result.returncode == 2, (args, result.stderr)
        assert json.loads(result.stdout)["error"] == "DocumentInvalid"


def test_bad_arguments_exit_2():
    doc = json.dumps(state_document(to_float(from_terms((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1}))))
    for args in [
        ["oracle", "--restarts", "0", "--seed", "1"],
        ["oracle", "--restarts", "-1", "--seed", "1"],
        ["reachable", "S2", "Sx", "--family", "bipartite"],
        ["reachable", "Sx", "S2", "--family", "bipartite"],
        ["reachable", "S2", "S0", "--family", "bipartite"],
        ["reachable", "S2", "GHZ", "--family", "bipartite"],
    ]:
        result = _run(args, stdin=doc)
        assert result.exit_code == 2, (args, result.output)
        assert "error" in json.loads(result.output)
    assert json.loads(_run(["reachable", "S2", "S1", "--family", "bipartite"]).output)["reachable"] is True


def test_random_exact_mode():
    doc = json.loads(_run(["random", "2x2", "--seed", "3", "--mode", "exact"]).output)
    assert doc["mode"] == "exact"
    assert all(isinstance(c, str) for amp in doc["amplitudes"] for c in amp)


def test_invariants_report():
    payload = json.loads(_run(["invariants"], stdin=_ghz_doc()).output)
    assert payload["local_ranks"] == [2, 2, 2]
    assert payload["separability"] == [[0, 1, 2]]
    assert payload["hyperdet"]["value"] == "1/1"
    assert payload["three_tangle_squared_x16"] == "16/1"


def test_canonicalize_command():
    payload = json.loads(_run(["canonicalize"], stdin=_ghz_doc()).output)
    assert payload["name"] == "GHZ"
    rep = parse_state_document(payload["representative"])
    assert rep.format == (2, 2, 2)


def test_canonicalize_extension_scalars_serialize():
    amps = [["1/1", "0/1"], ["0/1", "0/1"], ["0/1", "0/1"], ["1/1", "0/1"],
            ["0/1", "0/1"], ["1/1", "0/1"], ["2/1", "0/1"], ["0/1", "0/1"]]
    doc = json.dumps({"format": [2, 2, 2], "mode": "exact", "amplitudes": amps})
    result = _run(["canonicalize"], stdin=doc)
    assert result.exit_code == 0
    payload = json.loads(result.output)
    entries = [e for mat in payload["operators"] for row in mat for e in row]
    assert any("sqrt" in e for e in entries if isinstance(e, str))


def test_oracle_command_reports_seed():
    doc = json.dumps(state_document(to_float(from_terms((2, 2, 2), {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1}))))
    payload = json.loads(_run(["oracle", "--seed", "4", "--restarts", "16"], stdin=doc).output)
    assert payload["found"] is True
    assert payload["seed"] == 4
    assert payload["residual"] <= 1e-8
    assert payload["formula_value"] == 0.0


def test_mixed_command():
    member = lambda w, terms: {
        "weight": w,
        "state": {
            "format": [2, 2, 2],
            "mode": "exact",
            "amplitudes": [
                ["1/1" if i in terms else "0/1", "0/1"] for i in range(8)
            ],
        },
    }
    doc = json.dumps({"members": [member("1/2", {0, 7}), member("1/2", {1, 2, 4})]})
    payload = json.loads(_run(["mixed"], stdin=doc).output)
    assert payload["ladder_class"] == "GHZ-class"
    assert payload["bound_kind"] == "upper-bound"


def test_mixed_weight_sum_past_the_float_range():
    # an exact weight of 10**400 beside a float weight is summed exactly, with no float overflow
    state = json.loads(_ghz_doc())
    doc = '{"members": [{"weight": 1%s, "state": %s}, {"weight": 0.5, "state": %s}]}' % (
        "0" * 400, json.dumps(state), json.dumps(state))
    result = _run(["mixed"], stdin=doc)
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)
    assert payload["error"] == "SizeMismatch"
    assert payload["message"].startswith("weights must sum to 1")


def test_mixed_exact_weight_sum_past_the_int_str_limit():
    # the exact sum of these weights has terms of about 4,500 digits; the message must not print them in full
    state = json.loads(_ghz_doc())
    members = [{"weight": "1/%d" % (10**1500 + k), "state": state} for k in (1, 3, 7)]
    result = _run(["mixed"], stdin=json.dumps({"members": members}))
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)
    assert payload["error"] == "SizeMismatch"
    assert payload["message"] == "weights must sum to 1 exactly, got about 10**-1499.52"
    # a sum within the limit prints in full
    members = [{"weight": w, "state": state} for w in ("1/2", "1/3")]
    payload = json.loads(_run(["mixed"], stdin=json.dumps({"members": members})).output)
    assert payload["message"] == "weights must sum to 1 exactly, got 5/6"


def test_text_and_json_agree():
    as_json = json.loads(_run(["classify"], stdin=_ghz_doc()).output)
    as_text = _run(["classify", "--output", "text"], stdin=_ghz_doc()).output
    assert f"name{' ' * 8}  GHZ" in as_text or "GHZ" in as_text
    assert str(as_json["onion_level"]) in as_text
    for rank in as_json["local_ranks"]:
        assert str(rank) in as_text


def test_env_variable_fallback(monkeypatch):
    runner = CliRunner()
    result = runner.invoke(main, ["random", "2x2"], env={"ONION_SEED": "12"})
    assert json.loads(result.output)["seed"] == 12


_ENSEMBLE_DOC = json.dumps({"members": [{"weight": "1/2", "state": json.loads(_ghz_doc())}] * 2})
# (options, document) of each command that reads a document
_DOCUMENT_COMMANDS = {
    "classify": ([], _ghz_doc()),
    "hyperdet": ([], _ghz_doc()),
    "invariants": ([], _ghz_doc()),
    "canonicalize": ([], _ghz_doc()),
    "oracle": (["--seed", "1", "--restarts", "2"], _ghz_doc()),
    "mixed": ([], _ENSEMBLE_DOC),
}


@pytest.mark.parametrize("cmd", list(_DOCUMENT_COMMANDS))
def test_document_plumbing(cmd, tmp_path):
    # one read, emit and error path behind every document command
    opts, doc = _DOCUMENT_COMMANDS[cmd]
    path = tmp_path / "doc.json"
    path.write_text(doc, encoding="utf-8")
    runner = CliRunner()
    from_stdin = runner.invoke(main, [cmd, *opts], input=doc)
    assert from_stdin.exit_code == 0, from_stdin.output
    for args, env in [([cmd, "--input", str(path), *opts], {}), ([cmd, *opts], {"ONION_INPUT": str(path)})]:
        result = runner.invoke(main, args, env=env)
        assert (result.exit_code, result.output) == (0, from_stdin.output), (args, env)
    as_text = runner.invoke(main, [cmd, "--output", "text", *opts], input=doc)
    assert as_text.exit_code == 0 and as_text.output != from_stdin.output
    via_env = runner.invoke(main, [cmd, *opts], input=doc, env={"ONION_OUTPUT": "text"})
    assert (via_env.exit_code, via_env.output) == (0, as_text.output)
    bad = runner.invoke(main, [cmd, *opts], input="{bad")
    assert bad.exit_code == 2
    payload = json.loads(bad.output)
    assert payload["error"] == "DocumentInvalid"
    assert payload["message"].startswith("bad JSON: ")


@pytest.mark.parametrize("cmd", list(_DOCUMENT_COMMANDS))
def test_unreadable_input_exits_2(cmd, tmp_path):
    # a missing path, a directory and a file that is not UTF-8 take the one error route
    not_utf8 = tmp_path / "latin.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    opts, _ = _DOCUMENT_COMMANDS[cmd]
    for path in [tmp_path / "missing.json", tmp_path, not_utf8]:
        result = _run([cmd, "--input", str(path), *opts])
        assert result.exit_code == 2, (path, result.output)
        assert isinstance(result.exception, SystemExit)
        assert json.loads(result.output)["error"] == "DocumentInvalid"


@pytest.mark.parametrize("args", [
    ["classify", "--tol", "abc"], ["classify", "--output", "xml"], ["classify", "--bogus"], ["nosuch"],
    ["--bogus"],
])
def test_usage_errors_print_json(args):
    result = _run(args, stdin=_ghz_doc())
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    payload = json.loads(result.output)
    assert payload["error"] == "UsageError"
    assert payload["message"]


def test_bare_call_prints_help():
    result = _run([])
    assert result.exit_code == 2
    assert "Commands:" in result.output
    assert '"error"' not in result.output
    assert _run(["--help"]).exit_code == 0


def test_usage_error_in_a_process():
    proc = subprocess.run([sys.executable, "-m", "onionclass.cli", "classify", "--tol", "abc"],
                          input=_ghz_doc(), capture_output=True, text=True, timeout=30, env=_cli_env())
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout) == {
        "error": "UsageError", "message": "Invalid value for '--tol': 'abc' is not a valid float.",
    }


def test_random_bad_format_spec_exits_2():
    result = _run(["random", "2xq"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert json.loads(result.output)["error"] == "DocumentInvalid"


def test_invariants_at_unit_tol_keeps_rank_1():
    # a nonzero flattening has rank at least 1 whatever the tolerance
    amps = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
    doc = json.dumps({"format": [2, 2], "mode": "float", "amplitudes": amps})
    result = _run(["invariants", "--tol", "1"], stdin=doc)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["local_ranks"] == [1, 1]


def _pushed_docs(states, seed=0):
    """States pushed by random Gaussian-integer operators, as exact documents."""
    rng = np.random.default_rng(seed)
    docs = []
    for rep in states:
        ops = local_operators([rand_invertible(rng, d) for d in rep.format])
        docs.append(json.dumps(state_document(apply_local(rep, ops))))
    return docs


# Runs [args, stdin] pairs through the CLI in one fresh interpreter and
# reports after each whether numpy has been imported by then.
_NUMPY_PROBE = """
import json, sys
from click.testing import CliRunner
from onionclass.cli import main
for args, stdin in json.load(sys.stdin):
    result = CliRunner().invoke(main, args, input=stdin)
    print(json.dumps([args, result.exit_code, "numpy" in sys.modules]))
"""


def test_exact_documents_never_import_numpy():
    states = [from_terms((d, d), {(i, i): 1 for i in range(r)}) for d in (2, 3) for r in range(1, d + 1)]
    for family in ("qubit3", "format322", "qubit4"):
        states += class_catalog(family).values()
    runs = [[[cmd], doc] for doc in _pushed_docs(states) for cmd in ("classify", "hyperdet", "invariants")]
    qubit3 = list(class_catalog("qubit3").values())
    runs += [[["canonicalize"], doc] for doc in _pushed_docs(qubit3, seed=1)]
    members = [{"weight": "1/2", "state": json.loads(doc)} for doc in _pushed_docs(qubit3[:2], seed=2)]
    runs.append([["mixed"], json.dumps({"members": members})])
    runs += [[["reachable", "GHZ", "B2"], ""], [["reachable", "S3", "S1", "--family", "bipartite"], ""]]
    result = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], input=json.dumps(runs),
                            capture_output=True, text=True, timeout=120, env=_cli_env())
    assert result.returncode == 0, result.stderr
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(reports) == len(runs)
    for (args, doc), (_, code, loaded) in zip(runs, reports):
        # 3x3 has no hyperdeterminant rule: a documented exit 3
        unsupported = args == ["hyperdet"] and json.loads(doc)["format"] == [3, 3]
        assert code == (3 if unsupported else 0), (args, doc)
        assert not loaded, f"numpy imported by {args} on {doc}"
    # float documents import numpy partway through a command, in a fresh process
    w = to_float(from_terms((2, 2, 2), {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1}))
    for cmd, key, expected in [("classify", "name", "W"), ("invariants", "local_ranks", [2, 2, 2])]:
        proc = subprocess.run([sys.executable, "-m", "onionclass.cli", cmd], input=json.dumps(state_document(w)),
                              capture_output=True, text=True, timeout=30, env=_cli_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)[key] == expected


def test_oracle_party_count_exits_3():
    for fmt in [(2,), (2,) * 9]:
        doc = json.dumps(state_document(random_state(fmt, 1)))
        result = subprocess.run([sys.executable, "-m", "onionclass.cli", "oracle", "--seed", "1"], input=doc,
                                capture_output=True, text=True, timeout=30, env=_cli_env())
        assert result.returncode == 3, (fmt, result.stderr)
        assert json.loads(result.stdout)["error"] == "UnsupportedFormat"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1"])
def test_bad_tolerance_exits_2(bad):
    doc = json.dumps(state_document(to_float(from_terms((2, 2, 2), {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1}))))
    for args, env in [
        (["classify", "--tol", bad], {}),
        (["invariants"], {"ONION_TOL": bad}),
        (["oracle", "--seed", "1", "--tol", bad], {}),
        (["oracle", "--seed", "1"], {"ONION_ORACLE_TOL": bad}),
    ]:
        result = CliRunner().invoke(main, args, input=doc, env=env)
        assert result.exit_code == 2, (args, env, result.output)
        assert isinstance(result.exception, SystemExit)
        assert json.loads(result.output)["error"] == "DocumentInvalid"
    with pytest.raises(DocumentInvalid):
        critical_point_search(random_state((2, 2, 2), 1), restarts=1, tol=float(bad))


def test_selftest_json_report(monkeypatch):
    from onionclass import selftest

    picked = ["class-catalog", "slice-swap-signs"]
    monkeypatch.setattr(selftest, "run", lambda level: [selftest.run_one(name, level) for name in picked])
    result = _run(["selftest", "--json"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["level"] == "quick"
    assert report["passed"] == 2
    assert [entry["name"] for entry in report["results"]] == picked
    for entry in report["results"]:
        assert set(entry) == {"name", "passed", "seconds", "detail"}
        assert entry["passed"] is True
        assert entry["seconds"] > 0
        assert isinstance(entry["detail"], str)
    # a failing criterion exits 1 in both outputs, and the text lines keep their form
    monkeypatch.setattr(selftest, "run", lambda level: [selftest.CheckResult("broken", False, "forced", 0.5)])
    result = _run(["selftest", "--json", "--level", "full"])
    assert result.exit_code == 1
    assert json.loads(result.output) == {
        "level": "full", "passed": 0,
        "results": [{"name": "broken", "passed": False, "seconds": 0.5, "detail": "forced"}],
    }
    result = _run(["selftest"])
    assert result.exit_code == 1
    assert result.output.splitlines() == ["FAIL  broken (0.50 s): forced", "0/1 criteria passed (quick level)"]


def _exact_doc(fmt, amplitudes):
    return json.dumps({"format": list(fmt), "mode": "exact", "amplitudes": [[f"{a}/1", "0/1"] for a in amplitudes]})


def test_oracle_scales_exact_documents_past_the_float_range():
    # 2**1100 W overflows a float; a power-of-two rescale is exact, so the report does not change
    w = [0, 1, 1, 0, 1, 0, 0, 0]
    args = ["oracle", "--seed", "3", "--restarts", "4"]
    small = _run(args, stdin=_exact_doc((2, 2, 2), w))
    large = _run(args, stdin=_exact_doc((2, 2, 2), [a * 2 ** 1100 for a in w]))
    assert (small.exit_code, large.exit_code) == (0, 0), large.output
    assert large.output == small.output


def test_exact_results_past_the_int_str_limit_print():
    # 200-digit amplitudes give a degree-24 hyperdeterminant of about 4,800 digits
    rng = random.Random(7)
    amplitudes = [rng.randrange(10 ** 199, 10 ** 200) for _ in range(16)]
    limit = sys.get_int_max_str_digits()
    for cmd in ("classify", "hyperdet"):
        result = _run([cmd], stdin=_exact_doc((2, 2, 2, 2), amplitudes))
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert len(payload["diagnostics"]["det"] if cmd == "classify" else payload["value"]) > limit
    assert sys.get_int_max_str_digits() == limit


def test_oversized_literals_exit_2():
    # an exact literal past the int-str digit limit is named by the limit, not echoed
    result = _run(["classify"], stdin=_exact_doc((2, 2), ["1" + "0" * 5000, 0, 0, 1]))
    assert result.exit_code == 2
    payload = json.loads(result.output)
    assert payload["error"] == "DocumentInvalid"
    assert str(sys.int_info.default_max_str_digits) in payload["message"] and len(payload["message"]) < 200
    # float JSON integers past the float range, and past the JSON parser's digit limit
    for digits in (400, 5000):
        doc = '{"format": [2, 2], "mode": "float", "amplitudes": [[1%s, 0], [0, 0], [0, 0], [1, 0]]}' % ("0" * digits)
        result = _run(["classify"], stdin=doc)
        assert result.exit_code == 2, (digits, result.output)
        payload = json.loads(result.output)
        assert payload["error"] == "DocumentInvalid"
        # the parser's own advice names a Python call that a CLI user cannot make
        assert "set_int_max_str_digits" not in payload["message"]


def test_invariants_and_classify_agree_on_in_band_ranks(spectrum_state, second_svd_routine):
    # party 2's ratio 3e-9 lies in the band; a second ranking of its tall transpose would read 3e-10 < tol
    state = spectrum_state((2, 2, 2), 2, (1, 3e-9))
    second_svd_routine(lambda rows: len(rows) > len(rows[0]))
    doc = json.dumps(state_document(state))
    classified = json.loads(_run(["classify"], stdin=doc).output)
    invariants = json.loads(_run(["invariants"], stdin=doc).output)
    assert classified["local_ranks"] == invariants["local_ranks"] == [2, 2, 2]
    assert invariants["separability"] == [[0, 1, 2]]
    assert classified["diagnostics"]["boundary_warning"] is True


def _strict_json(text):
    """json.loads that refuses the bare NaN, Infinity and -Infinity strict JSON does not have."""
    def refuse(constant):
        raise ValueError(f"bare {constant} in the output")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("output", ["json", "text"])
@pytest.mark.parametrize("cmd, fmt", [("hyperdet", (2, 2, 2)), ("hyperdet", (3, 2, 2)),
                                      ("invariants", (2, 2, 2)), ("invariants", (2, 2, 2, 2))])
def test_non_finite_float_results_exit_2(cmd, fmt, output):
    # x1e78 overflows the float invariants, which read inf or NaN; the unit-norm state's report is finite
    state = random_state(fmt, 5)
    large = state_document(float_state(fmt, [a * 1e78 for a in state.amplitudes]))
    result = _run([cmd, "--output", output], stdin=json.dumps(large))
    assert result.exit_code == 2, result.output
    assert _strict_json(result.output)["error"] == "DocumentInvalid"
    unit = _run([cmd], stdin=json.dumps(state_document(state)))
    assert unit.exit_code == 0 and _strict_json(unit.output)["format"] == list(fmt)


@pytest.mark.parametrize("fmt", [(2, 2, 2), (3, 2, 2), (2, 2, 2, 2)])
def test_seeded_documents_keep_their_label_at_every_scale(fmt):
    # a ray has one class: from 1e-300 to 1e150 nothing exits 1, a report holding a non-finite
    # float (the value of hyperdet, classify's diagnostics["det"]) exits 2, and any other keeps the label;
    # the largest real or imaginary part at 1.75e308 puts |a| itself past the float range
    state = random_state(fmt, 5)
    unit = classify(state).name
    cmds = ("classify", "hyperdet", "canonicalize") if fmt == (2, 2, 2) else ("classify", "hyperdet")
    top = max(max(abs(a.real), abs(a.imag)) for a in state.amplitudes)
    for scale in [10.0 ** k for k in (-300, -200, -100, -60, -40, 13, 14, 52, 78, 150)] + [1.75e308]:
        scaled = float_state(fmt, [a / top * scale for a in state.amplitudes])
        finite = cmath.isfinite(hyperdet(scaled).value)
        for cmd in cmds:
            result = _run([cmd], stdin=json.dumps(state_document(scaled)))
            payload = _strict_json(result.output)
            if finite or cmd == "canonicalize":
                assert result.exit_code == 0, (scale, cmd, result.output)
                assert cmd == "hyperdet" or payload["name"] == unit, (scale, cmd)
            else:
                assert (result.exit_code, payload["error"]) == (2, "DocumentInvalid"), (scale, cmd)
