"""Self-test of the benchmark's tracer on reduced configs.

    python3 -m pytest -q perfbench

Call counts must equal the numbers each config implies, and tracing must not
change a single report byte.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import kernelcomp  # noqa: E402
import kernelcomp.ball  # noqa: E402
import kernelcomp.cli as cli  # noqa: E402
import kernelcomp.kernels  # noqa: E402
from spans import Tracer  # noqa: E402

REDUCED = {
    "hardy-bound": {"section_degree": 16, "trace_degrees": [4, 16],
                    "check_sharp": False},
    "theorem1": {"trials": 3, "section_degree": 16, "combo_degree": 40},
    "szego-identity": {"degrees": [8, 16], "point_count": 10},
    "summation": {"symbol": {"type": "taylor",
                             "coeffs": [[0, 0], [0.5, 0], [0, 0], [0.4, 0]]},
                  "section_degree": 8, "test_degree": 4},
    "bergman-bound": {"alphas": [2], "trials": 2, "section_degree": 16,
                      "combo_degree": 40},
    "inf-estimate": {"section_degree": 32, "family_size": 2},
    "ball-lemma": {"maps": 2, "alphas": [1], "section_degree": 4,
                   "cert_points": 10},
    "ball-bound": {"maps": 2, "alphas": [1], "section_degree": 4},
    "br": {"r_values": [0.5, 0.95], "section_degree": 8, "witness_budget": 5,
           "set_size": 4},
    "psd": {"point_count": 20, "spec": {"kind": "ball", "dim": 2, "alpha": 2.0}},
}


def _config(name, **params):
    return cli.ExperimentConfig.from_dict(
        {"name": name, "seed": 3, "params": {**REDUCED[name], **params}})


def _traced(cfg):
    tracer = Tracer()
    with tracer:
        text = cli.render_report(cli.run_experiment(cfg), "json")
    return tracer.metrics(), text


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_tracing_leaves_report_bytes_unchanged(name):
    cfg = _config(name)
    plain = cli.render_report(cli.run_experiment(cfg), "json")
    metrics, traced = _traced(cfg)
    assert traced == plain
    assert metrics["cli.run_experiment.calls"] == 1
    assert metrics["cli.report_bytes"] == len(plain.encode())


def test_theorem1_calls_follow_trials():
    m, _ = _traced(_config("theorem1", trials=3))
    for span in ("operators.weighted_comp_matrix", "operators.comp_matrix",
                 "operators.mult_matrix", "operators.op_norm_lower",
                 "sampling.random_disk_symbol", "sampling.random_kernel_combo",
                 "dbr.combo_to_poly"):
        assert m[span + ".calls"] == 3, span
    # one prefix per trial, and no kernel search in this experiment
    assert m["operators.op_norm_lower.prefixes"] == 3
    assert m["kernels.find_negative_witness.calls"] == 0


def test_exhausted_search_draws_budget_plus_probe():
    budget = 7
    m, _ = _traced(_config("br", r_values=[0.5], witness_budget=budget))
    # the probe in ball.br_experiment is drawn through ball's own binding
    assert m["kernels.sample_point_set.calls"] == budget + 1
    assert m["kernels.witness_trials"] == budget
    assert m["kernels.witness_budget"] == budget
    assert m["kernels.witness_found"] == 0
    assert m["kernels.points_drawn"] == 4 * (budget + 1)
    # reached through ball's binding, not through cli's
    assert m["operators.op_norm_lower.calls"] == 1
    assert m["operators.comp_matrix.calls"] == 1


def test_witness_at_trial_zero_stops_the_search():
    m, _ = _traced(_config("br", r_values=[1.0], witness_budget=50))
    assert m["kernels.witness_found"] == 1
    assert m["kernels.witness_trials"] == 1
    assert m["kernels.sample_point_set.calls"] == 2


def test_summation_counts_every_mode():
    m, _ = _traced(_config("summation"))
    # full-rank defect: degree 8 gives 9 modes, one weighted section each
    assert m["dbr.modes"] == 9
    assert m["operators.weighted_comp_matrix.calls"] == 9


def test_self_times_add_up_to_the_run():
    m, _ = _traced(_config("ball-lemma"))
    layers = sum(v for k, v in m.items()
                 if k.count(".") == 1 and k.endswith(".self_s"))
    spans = sum(v for k, v in m.items()
                if k.count(".") >= 2 and k.endswith(".self_s"))
    assert layers == pytest.approx(spans)
    assert m["series.BallPoly.mul.calls"] > 0
    assert m["operators.section_fill"] > 0


def test_every_binding_is_restored():
    modules = [kernelcomp, kernelcomp.ball, kernelcomp.cli, kernelcomp.kernels]
    before = [dict(vars(m)) for m in modules]
    mul = vars(kernelcomp.BallPoly)["__mul__"]
    tracer = Tracer()
    with tracer:
        assert kernelcomp.ball.sample_point_set is not \
            before[1]["sample_point_set"]
        assert kernelcomp.BallPoly.__rmul__ is kernelcomp.BallPoly.__mul__
        assert vars(kernelcomp.BallPoly)["__mul__"] is not mul
    for module, saved in zip(modules, before):
        assert all(vars(module)[k] is v for k, v in saved.items())
    assert vars(kernelcomp.BallPoly)["__mul__"] is mul
    assert vars(kernelcomp.BallPoly)["__rmul__"] is mul
