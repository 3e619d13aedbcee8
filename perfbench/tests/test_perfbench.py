"""Self-tests of the benchmark: span arithmetic, scoring and tracer restore.

    python3 -m pytest perfbench/tests -q
"""

import copy
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _spans(*rows):
    t = tracer.Tracer()
    for name, start, end, parent in rows:
        t.span(name, start, end, parent)
    return t.spans


def test_self_time_subtracts_union_of_children():
    spans = _spans(("pass", 0.0, 10.0, None),
                   ("a", 1.0, 4.0, 0),
                   ("b", 3.0, 6.0, 0),      # overlaps a: union is [1, 6]
                   ("c", 2.0, 3.0, 1),
                   ("d", 9.0, 12.0, 0))     # clipped to the parent at 10
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx({0: 10 - 5 - 1, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})


def test_layer_totals_count_recursion_once():
    spans = _spans(("f", 0.0, 10.0, None),
                   ("f", 2.0, 5.0, 0),
                   ("g", 3.0, 4.0, 1))
    totals = tracer.layer_totals(spans)
    assert totals["f"]["calls"] == 2
    assert totals["f"]["total_s"] == pytest.approx(10.0)
    assert totals["f"]["self_s"] == pytest.approx(7.0 + 2.0)
    assert totals["g"]["self_s"] == pytest.approx(1.0)


def test_counts_sum_and_max():
    t = tracer.Tracer()
    t.span("charpoly", 0, 1, None, {"dim_max": 24, "terms_out": 3})
    t.span("charpoly", 1, 2, None, {"dim_max": 30, "terms_out": 4})
    counts = tracer.layer_totals(t.spans)["charpoly"]["counts"]
    assert counts == {"dim_max": 30, "terms_out": 7}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tampered_expected_answer_raises_fail_rate(workload):
    expected = workloads.load_expected()[workload]
    answers = {name: want["answer"] for name, want in expected.items()}

    def fail_rate(obs, exp):
        verdicts = workloads.score(obs, exp)
        return sum(not ok for _, ok in verdicts) / len(verdicts)

    assert fail_rate(answers, expected) == 0
    tampered = copy.deepcopy(expected)
    name = next(iter(tampered))
    tampered[name]["answer"] = "tampered"
    assert fail_rate(answers, tampered) == 1 / len(expected)
    # a pass that raised after its first verdict fails every later one
    partial = dict(list(answers.items())[:1])
    assert fail_rate(partial, expected) == (len(expected) - 1) / len(expected)


def test_known_answers_do_not_come_from_the_program():
    expected = workloads.load_expected()
    for n in (8, 9):
        # trace((I+tJ)^8): t^4-coefficient is C(8,4) n^4
        assert expected["identity84_large"][f"target_at_A=I_B=J:n={n}"]["answer"] == 70 * n**4
    for per_workload in expected.values():
        assert all(want["source"] for want in per_workload.values())


def _functions():
    return {(mod.__name__, attr): value
            for mod in tracer.package_modules()
            for attr, value in vars(mod).items()
            if isinstance(value, types.FunctionType)}


def test_traced_calls_reach_every_binding_and_originals_return():
    from tracesos import cert42, cert84, sdpio
    from tracesos.necklace import TraceProblem

    before = _functions()
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            assert cert84.trace_coeff_necklace is not before[("tracesos.necklace",
                                                              "trace_coeff_necklace")]
            cert84.derive_param_system(4)
            sdpio.build_sdp(TraceProblem(4, 2, 2), sdpio.certificate_basis_42(2))
            cert42.assemble_sos_42(cert42.build_certificate42(2))
            raise RuntimeError("restore must survive an exception")
    after = _functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    names = {s["id"]: s["name"] for s in t.spans}
    parents = {(names.get(s["parent"]), s["name"]) for s in t.spans}
    # calls through `from .x import f` bindings in other modules
    assert ("cert84.derive_param_system", "necklace.trace_coeff_necklace") in parents
    assert ("sdpio.build_sdp", "necklace.trace_coeff_necklace") in parents
    assert ("cert42.assemble_sos_42", "poly.quadratic_form") in parents
    assert ("cert84.assemble_sos_84", "poly.quadratic_form") in parents


def test_coverage_flags_silent_and_unexpected_layers():
    predictions = {"layers": [
        {"layer": "necklace.trace_coeff_matrix", "moves": ["verify_all"],
         "idle": ["identity84_large"]}]}
    called = {"necklace.trace_coeff_matrix": {"calls": 3}}
    assert run.coverage("verify_all", called, predictions) == [
        ("layer runs:necklace.trace_coeff_matrix", True)]
    assert run.coverage("verify_all", {}, predictions) == [
        ("layer runs:necklace.trace_coeff_matrix", False)]
    assert run.coverage("identity84_large", called, predictions) == [
        ("layer idle:necklace.trace_coeff_matrix", False)]
