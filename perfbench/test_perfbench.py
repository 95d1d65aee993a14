"""Smoke tests for the benchmark itself.

    python3 -m pytest -q perfbench

Every workload runs one round, traced and untraced, with no failures; the
answer checks must catch hand-made wrong answers; and the benchmark must
refuse to run without the ringinv sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import answers
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
from ringinv import cli  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def metric_names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_one_round_of_each_workload_passes(name, trace):
    result, info, spans = run.benchmark(name, run.DEFAULT_SEED, 0, trace, 1)
    assert result["correct"] and result["failed"] == 0, info["problems"]
    assert result["attempted"] >= run.DIGEST_OPS
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == metric_names(kind)
    for m in SPEC[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert (spans is not None) == bool(trace)


def test_refuses_to_run_without_the_sources(tmp_path):
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "named-q", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def _answer(spec):
    """Run one request through ringinv and return (code, stdout)."""
    requests = run.Requests("named-q")
    requests.cli = cli
    _, (code, out, err) = requests._call(workloads.argv(spec))()
    assert not err
    return code, out


MP_SPEC = {"command": "compute", "ring": "m2q",
           "element": [["2", "-2"], ["0", "0"]], "inverse": "moore-penrose"}
GROUP_SPEC = {"command": "compute", "ring": "m2q",
              "element": [["0", "1"], ["0", "0"]], "inverse": "group"}


def test_answer_check_accepts_the_right_answers():
    for spec in (MP_SPEC, GROUP_SPEC):
        code, out = _answer(spec)
        assert answers.check(spec, code, out) is None


def test_answer_check_catches_a_wrong_value():
    code, out = _answer(MP_SPEC)
    doc = json.loads(out)
    assert doc["value"] == [["1/4", "0"], ["-1/4", "0"]]
    doc["value"] = [["1/2", "0"], ["-1/4", "0"]]
    assert answers.check(MP_SPEC, code, json.dumps(doc) + "\n")


def test_answer_check_catches_a_wrong_existence_claim():
    code, out = _answer(MP_SPEC)
    doc = json.loads(out)
    doc["exists"] = False
    del doc["value"]
    assert answers.check(MP_SPEC, 1, json.dumps(doc) + "\n")
    # a{1,2,5} of a nonzero nilpotent is empty: claiming a value is wrong
    code, out = _answer(GROUP_SPEC)
    doc = json.loads(out)
    doc.update(exists=True, value=[["0", "0"], ["0", "0"]])
    assert answers.check(GROUP_SPEC, 0, json.dumps(doc) + "\n")


def test_answer_check_catches_a_missing_enumerate_member():
    spec = {"command": "enumerate", "ring": "zn:12", "element": "4",
            "equations": "1"}
    code, out = _answer(spec)
    assert answers.check(spec, code, out) is None
    doc = json.loads(out)
    doc["members"].pop()
    doc["count"] -= 1
    assert answers.check(spec, code, json.dumps(doc) + "\n")


def test_catalog_check_catches_a_short_count_and_a_counterexample():
    class Report:
        ring, theorem, counterexample = "zn:6", "T-invertible-lemma", None
        cases_checked = 6
    key = ("zn:6", "T-invertible-lemma")
    assert run.Catalog.check(key, Report) is None
    Report.cases_checked = 5
    assert run.Catalog.check(key, Report)
    Report.cases_checked, Report.counterexample = 6, "a=2"
    assert run.Catalog.check(key, Report)


def test_rank_criteria_agree_with_brute_force():
    """The rank criteria used above BRUTE_FORCE_MAX, checked on m2f3."""
    ar = answers.MatArith(2, 3)
    elements = list(ar.elements())
    for a in elements:
        k = answers.drazin_index(ar, a)
        for name, toks in answers.NAMED.items():
            brute = any(answers.all_hold(ar, toks, a, x, k)
                        for x in elements)
            size, ar.size = ar.size, None
            try:
                assert answers._named_exists(ar, name, a, k) == brute
            finally:
                ar.size = size
