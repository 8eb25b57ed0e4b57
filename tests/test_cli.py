from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spe
from spe import build_engine_model, load_dataset, load_qtable, reference_params, save_params, solve
from spe.cli import main
from support import call_sites, two_state_hand_model


def test_only_the_cli_prints():
    # library code logs and never prints; the command line owns stdout
    package = Path(spe.__file__).parent
    printing = sorted(
        path.name
        for path in package.glob("*.py")
        if path.name != "cli.py"
        and any(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )
    assert printing == []


def test_json_is_read_in_one_place_per_format():
    # a JSON file is read by model.read_json_object and a JSONL line by
    # engine.load_dataset, so every input file of one format fails the same way
    assert call_sites(("json.load", "json.loads")) == [
        ("engine.py", "load_dataset", "json.loads"),
        ("model.py", "read_json_object", "json.load"),
    ]


def test_json_is_written_in_one_place_per_format():
    # every JSON file (model, Q table, parameters, report) is written by
    # model.write_json_object and every JSON-lines file by engine.write_json_lines
    assert call_sites(("json.dump", "json.dumps")) == [
        ("engine.py", "write_json_lines", "json.dumps"),
        ("model.py", "write_json_object", "json.dump"),
    ]


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "fleet.jsonl"
    rc = main(["simulate", "--n", "8", "--t", "30", "--seed", "3", "--out", str(path)])
    assert rc == 0
    return path


def run(argv):
    return main([str(a) for a in argv])


def test_simulate_deterministic(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
    assert run(["simulate", "--n", "4", "--t", "12", "--seed", "7", "--out", a]) == 0
    assert run(["simulate", "--n", "4", "--t", "12", "--seed", "7", "--out", b]) == 0
    assert run(["simulate", "--n", "4", "--t", "12", "--seed", "8", "--out", c]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    out = capsys.readouterr().out
    assert "4 histories" in out


def test_simulate_rejects_empty_fleet(tmp_path, capsys):
    out = tmp_path / "none.jsonl"
    rc = run(["simulate", "--n", "0", "--t", "12", "--seed", "1", "--out", out])
    assert rc == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("z0", ["500", "-1"])
def test_simulate_rejects_z0_outside_usage_bins(tmp_path, capsys, z0):
    out = tmp_path / "f.jsonl"
    rc = run(["simulate", "--n", "3", "--t", "5", "--seed", "1", "--z0", z0, "--out", out])
    assert rc == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: z0")


def test_simulate_missing_params_file(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    rc = run(
        ["simulate", "--params", tmp_path / "absent.json", "--n", "2", "--t", "5",
         "--seed", "1", "--out", out]
    )
    assert rc == 2
    assert not out.exists()


def test_simulate_params_file_must_hold_an_object(tmp_path, capsys):
    # a number used to end in a TypeError traceback
    params = tmp_path / "p.json"
    params.write_text("5\n")
    out = tmp_path / "x.jsonl"
    rc = run(["simulate", "--params", params, "--n", "2", "--t", "5", "--seed", "1", "--out", out])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: parameter file must hold a JSON object")
    assert not out.exists()


def test_simulate_x0_flag(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run(["simulate", "--n", "3", "--t", "10", "--seed", "2", "--x0", "0.3,0.7",
                "--out", a]) == 0
    for h in load_dataset(a):
        assert np.allclose(h.x0.probs, [0.3, 0.7])
    # a belief that does not sum to one is a validation failure, not a crash
    rc = run(["simulate", "--n", "3", "--t", "10", "--seed", "2", "--x0", "0.3,0.9",
              "--out", b])
    assert rc == 1


def test_threads_flag_is_numerically_inert(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run(["simulate", "--n", "4", "--t", "15", "--seed", "5", "--out", a]) == 0
    assert run(["simulate", "--n", "4", "--t", "15", "--seed", "5", "--threads", "2",
                "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "env, flag",
    [("abc", None), ("0", None), ("-3", None), ("1.5", None),
     (None, "-2"), (None, "0"), (None, "abc"), ("2", "x")],
)
def test_threads_must_be_a_positive_integer(tmp_path, capsys, monkeypatch, env, flag):
    if env is None:
        monkeypatch.delenv("SPE_THREADS", raising=False)
    else:
        monkeypatch.setenv("SPE_THREADS", env)
    out = tmp_path / "f.jsonl"
    argv = ["simulate", "--n", "2", "--t", "5", "--seed", "1", "--out", out]
    rc = run(argv + (["--threads", flag] if flag is not None else []))
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("--threads" if flag else "SPE_THREADS") in err


def test_spe_threads_sets_the_pools(tmp_path, monkeypatch):
    monkeypatch.setenv("SPE_THREADS", "1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    assert run(["simulate", "--n", "2", "--t", "5", "--seed", "1",
                "--out", tmp_path / "f.jsonl"]) == 0
    assert os.environ["OMP_NUM_THREADS"] == os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_cli_import_leaves_numpy_unloaded():
    # --threads can only size the BLAS pools if numpy loads after main() starts
    env = {**os.environ, "PYTHONPATH": str(Path(spe.__file__).resolve().parents[1])}
    code = "import sys, spe.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_every_public_name_resolves():
    for name in spe.__all__:
        assert getattr(spe, name) is not None, name


def test_every_public_name_is_used_or_documented():
    # A public name earns its place by a caller in the package, its scripts or
    # the benchmark, or by a mention in the README; test-only oracles live in
    # tests/support.py instead.
    root = Path(__file__).resolve().parents[1]
    sources = [p for d in ("src/spe", "scripts", "bench") for p in (root / d).glob("*.py")]
    code = "\n".join(p.read_text() for p in sources if p.name != "__init__.py")
    readme = (root / "README.md").read_text()
    orphans = [
        name
        for name in spe.__all__
        if len(re.findall(rf"\b{name}\b", code))
        == len(re.findall(rf"\b(?:def|class) {name}\b", code))
        and not re.search(rf"\b{name}\b", readme)
    ]
    assert orphans == []


def test_estimate_smoke(tiny_dataset, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = run(
        ["estimate", "--data", tiny_dataset, "--out", report_path,
         "--grid-resolution", "31", "--grad-tol", "5e-2", "--max-iters", "80"]
    )
    assert rc == 0
    payload = json.loads(report_path.read_text())
    assert payload["command"] == "estimate"
    assert payload["family"] == "pomdp"
    assert len(payload["data_sha256"]) == 64
    rep = payload["report"]
    assert rep["stage1"]["converged"] and rep["stage2"]["converged"]
    assert np.isfinite(rep["loglik"]["total"])
    out = capsys.readouterr().out
    assert "loglik total" in out


def test_estimate_nonconvergence_exit_code(tiny_dataset, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = run(
        ["estimate", "--data", tiny_dataset, "--out", report_path,
         "--grid-resolution", "31", "--grad-tol", "1e-12", "--max-iters", "1"]
    )
    assert rc == 1
    # the report survives the failed exit so the run can be inspected
    payload = json.loads(report_path.read_text())
    assert payload["report"]["stage2"]["converged"] is False
    assert "stopped before tolerance" in capsys.readouterr().err


def test_estimate_mdp_family(tiny_dataset, tmp_path):
    report_path = tmp_path / "mdp.json"
    rc = run(
        ["estimate", "--data", tiny_dataset, "--family", "mdp", "--out", report_path,
         "--grid-resolution", "31", "--grad-tol", "5e-2", "--max-iters", "80"]
    )
    assert rc == 0
    payload = json.loads(report_path.read_text())
    assert payload["family"] == "mdp"
    assert payload["report"]["diagnostics"]["baseline"] == "fully observed"


@pytest.mark.parametrize("subcommand", ["estimate", "sensitivity"])
def test_too_few_usage_bins_are_an_error(tiny_dataset, tmp_path, capsys, subcommand):
    # --bins 0 used to end in an IndexError traceback from the kernel's block table
    out = tmp_path / "out"
    assert run([subcommand, "--data", tiny_dataset, "--bins", "0", "--out", out]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: need at least 4 usage bins")


def test_mdp_family_refuses_a_dynamics_start(tiny_dataset, tmp_path, capsys):
    # the baseline's increments have a closed form; theta2_init used to be ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta2_init": [0.1, 0.2, 0.3, 0.4]}))
    assert run(["estimate", "--data", tiny_dataset, "--family", "mdp", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: theta2_init does not apply")


def test_estimate_missing_data_file(tmp_path):
    assert run(["estimate", "--data", tmp_path / "nope.jsonl"]) == 2


def test_estimate_malformed_data(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema": "fleet-history-v1"}\n{broken\n')
    assert run(["estimate", "--data", bad]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_file_merging(tiny_dataset, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_resolution": 31}))
    report = tmp_path / "sweep.json"
    csv_path = tmp_path / "sweep.csv"
    rc = run(
        ["sensitivity", "--data", tiny_dataset, "--config", cfg, "--m", "1,2",
         "--candidates", "3", "--out", csv_path, "--report", report]
    )
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["config"]["grid_resolution"] == 31


def test_report_embeds_the_whole_config(tiny_dataset, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_resolution": 31, "theta1_init": [0.5, 1.0, 8.0]}))
    report_path = tmp_path / "report.json"
    rc = run(["estimate", "--data", tiny_dataset, "--config", cfg, "--out", report_path,
              "--grad-tol", "5e-2", "--max-iters", "5"])
    assert rc in (0, 1)    # 1 only flags an iteration cap; the report is written
    config = json.loads(report_path.read_text())["report"]["config"]
    assert config["theta1_init"] == [0.5, 1.0, 8.0]
    assert config["theta2_init"] is None
    assert config["max_stage2_iters"] == 5
    assert set(config) == {f.name for f in dataclasses.fields(spe.EstimatorConfig)}


def test_config_file_rejects_unknown_field(tiny_dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_resolution": 31, "learning_rate": 0.1}))
    rc = run(["estimate", "--data", tiny_dataset, "--config", cfg])
    assert rc == 1
    assert "unknown config fields" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload",
    [
        ("estimate --config", {"max_stage2_iters": 2.5}),
        ("estimate --config", {"grad_norm_tol": "1e-3"}),
        ("estimate --config", {"grid_resolution": True}),
        ("evaluate --model", [1, 2]),
    ],
)
def test_wrong_typed_files_are_an_error(tiny_dataset, tmp_path, capsys, command, payload):
    # each of these used to end in a TypeError traceback
    path = tmp_path / "file.json"
    path.write_text(json.dumps(payload))
    subcommand, flag = command.split()
    assert run([subcommand, "--data", tiny_dataset, flag, path]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_evaluate_at_reference(tiny_dataset, tmp_path, capsys):
    out = tmp_path / "eval.json"
    rc = run(["evaluate", "--data", tiny_dataset, "--grid-resolution", "41",
              "--out", out])
    assert rc == 0
    payload = json.loads(out.read_text())
    ll = payload["loglik"]
    assert ll["total"] == pytest.approx(ll["obs_term"] + ll["choice_term"] + ll["prior_term"])
    assert ll["total"] < 0.0
    assert "loglik total" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, extra",
    [("evaluate", ["--grid-resolution", "11"]), ("bellman-solve", ["--resolution", "11"])],
    ids=["evaluate", "bellman-solve"],
)
def test_model_and_params_together_are_an_error(tiny_dataset, tmp_path, capsys, command, extra):
    # --params used to be ignored silently beside --model
    from spe.model import save_model

    model_path, params_path, out = tmp_path / "m.json", tmp_path / "p.json", tmp_path / "out.json"
    save_model(build_engine_model(reference_params(), 0.95), model_path)
    save_params(reference_params(), params_path)
    data = ["--data", tiny_dataset] if command == "evaluate" else []
    rc = run([command, *data, *extra, "--model", model_path, "--params", params_path, "--out", out])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: give a model file or a parameter file, not both")
    assert not out.exists()


def test_bellman_solve_cli(tmp_path, capsys):
    from spe.model import save_model

    model_path = tmp_path / "model.json"
    save_model(two_state_hand_model(), model_path)
    out1 = tmp_path / "q1.json"
    out2 = tmp_path / "q2.json"
    assert run(["bellman-solve", "--model", model_path, "--resolution", "21",
                "--tol", "1e-10", "--out", out1]) == 0
    assert run(["bellman-solve", "--model", model_path, "--resolution", "21",
                "--tol", "1e-10", "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    loaded = load_qtable(out1)
    direct = solve(two_state_hand_model(), resolution=21, tol=1e-10)
    np.testing.assert_allclose(loaded.values, direct.qtable.values, atol=1e-12)
    assert "solved in" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_bellman_solve_rejects_non_positive_tol(tmp_path, capsys, tol):
    out = tmp_path / "q.json"
    assert run(["bellman-solve", "--resolution", "5", "--tol", tol, "--out", out]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: tol must be positive")


@pytest.mark.parametrize(
    "argv",
    [
        ["bellman-solve", "--resolution", "5"],
        ["evaluate", "--grid-resolution", "5"],
        ["simulate", "--n", "2", "--t", "3", "--seed", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_nan_params_are_an_error(tiny_dataset, tmp_path, capsys, argv):
    # json reads the NaN literal; these commands used to solve, score -inf or crash
    params = tmp_path / "params.json"
    save_params(reference_params(), params)
    payload = json.loads(params.read_text())
    payload["persistence"] = [float("nan"), 0.988]
    params.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    extra = ["--data", tiny_dataset] if argv[0] == "evaluate" else []
    assert run(argv + extra + ["--params", params, "--out", out]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: persistence must be two probabilities")


@pytest.mark.parametrize("resolution", ["0", "1"])
def test_grid_resolution_below_two_is_an_error(tiny_dataset, tmp_path, capsys, resolution):
    out = tmp_path / "out.jsonl"
    assert run(["simulate", "--n", "2", "--t", "3", "--seed", "1",
                "--grid-resolution", resolution, "--out", out]) == 1
    assert run(["evaluate", "--data", tiny_dataset, "--grid-resolution", resolution,
                "--out", out]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error:") for line in err)


def test_estimate_warns_about_an_action_never_taken(tiny_dataset, capsys):
    # tiny_dataset holds no replacement, so the replacement cost has no
    # finite maximum; the fit still runs, and says so on stderr
    run(["estimate", "--data", tiny_dataset, "--grid-resolution", "11",
         "--stage1-max-iters", "0", "--max-iters", "0"])
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning: action")]
    assert warnings == [
        "warning: action 1 is never taken; the choice likelihood has no finite "
        "maximum in its reward"
    ]


def test_sensitivity_csv_format(tiny_dataset, tmp_path):
    csv_path = tmp_path / "curve.csv"
    rc = run(["sensitivity", "--data", tiny_dataset, "--m", "1,3",
              "--candidates", "3", "--grid-resolution", "31", "--out", csv_path])
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "M,spread"
    assert len(lines) == 3
    for line in lines[1:]:
        m, spread = line.split(",")
        assert int(m) in (1, 3)
        assert float(spread) >= 0.0


@pytest.mark.parametrize(
    "argv",
    [["estimate"], ["estimate", "--family", "mdp"], ["sensitivity", "--m", "1"]],
    ids=["estimate", "baseline", "sensitivity"],
)
@pytest.mark.parametrize(
    "records",
    ["", '{"x0": [0.5, 0.5], "z": [3], "a": []}\n'],
    ids=["no-histories", "zero-length-histories"],
)
def test_dataset_without_decisions_is_an_error(tmp_path, capsys, argv, records):
    data = tmp_path / "empty.jsonl"
    data.write_text(records)
    rc = run(argv + ["--data", data, "--out", tmp_path / "out"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no decisions" in err


def test_sensitivity_needs_a_candidate(tiny_dataset, tmp_path, capsys):
    rc = run(["sensitivity", "--data", tiny_dataset, "--m", "1", "--candidates", "0",
              "--out", tmp_path / "curve.csv"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least one candidate" in err


def test_identify_probe_cli(tmp_path, capsys):
    ref = reference_params()
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    save_params(ref, pa)
    save_params(dataclasses.replace(ref, persistence=np.array([0.7, 0.9])), pb)
    out = tmp_path / "probe.json"
    rc = run(["identify-probe", "--params-a", pa, "--params-b", pb, "--out", out])
    assert rc == 0
    assert "distinguishable at period 2" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["distinguishable"] is True
    assert payload["period"] == 2
    assert len(payload["witness"]) == 5

    rc = run(["identify-probe", "--params-a", pa, "--params-b", pa])
    assert rc == 0
    assert "not distinguishable" in capsys.readouterr().out


def test_every_report_names_what_produced_it(tiny_dataset, tmp_path):
    # each report carries the command, every parsed argument and the SHA-256
    # of each input file given, so a run can be traced to what produced it
    from spe.cli import build_parser

    ref = reference_params()
    pa, pb, cfg = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "cfg.json"
    save_params(ref, pa)
    save_params(dataclasses.replace(ref, persistence=np.array([0.7, 0.9])), pb)
    cfg.write_text(json.dumps({"grid_resolution": 31}))
    report = tmp_path / "report.json"
    runs = [
        (["estimate", "--data", tiny_dataset, "--config", cfg, "--discount", "0.9",
          "--grad-tol", "5e-2", "--max-iters", "5", "--out", report], ("data", "config")),
        (["evaluate", "--data", tiny_dataset, "--params", pa, "--discount", "0.9",
          "--grid-resolution", "31", "--out", report], ("data", "params")),
        (["sensitivity", "--data", tiny_dataset, "--config", cfg, "--m", "1", "--candidates", "2",
          "--bins", "120", "--out", tmp_path / "curve.csv", "--report", report], ("data", "config")),
        (["identify-probe", "--params-a", pa, "--params-b", pb, "--x0", "0.4,0.6",
          "--discount", "0.9", "--out", report], ("params_a", "params_b")),
    ]
    for argv, inputs in runs:
        argv = [str(a) for a in argv]
        assert main(argv) in (0, 1)    # 1 only flags an iteration cap; the report is written
        payload = json.loads(report.read_text())
        args = vars(build_parser().parse_args(argv))
        del args["func"]
        assert payload["command"] == argv[0]
        # sensitivity records the resolved config in place of its file name
        shown = set(args) - ({"config"} if argv[0] == "sensitivity" else set())
        assert {k: payload[k] for k in shown} == {k: args[k] for k in shown}
        for name in inputs:
            digest = payload[f"{name}_sha256"]
            assert re.fullmatch("[0-9a-f]{64}", digest)
            assert digest == hashlib.sha256(Path(args[name]).read_bytes()).hexdigest()


def test_identify_probe_rejects_bad_x0_and_tol(tmp_path, capsys):
    ref = reference_params()
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    save_params(ref, pa)
    save_params(dataclasses.replace(ref, persistence=np.array([0.9, 0.988])), pb)
    for pair, extra in (
        (pb, ["--x0", "0.5,0.6"]),
        (pb, ["--x0", "1.5,-0.5"]),
        (pb, ["--x0", "1"]),
        (pb, ["--tol", "nan"]),
        (pa, ["--tol", "-1"]),
    ):
        rc = run(["identify-probe", "--params-a", pa, "--params-b", pair, *extra])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
    # a zero tolerance is an exact comparison
    rc = run(["identify-probe", "--params-a", pa, "--params-b", pa, "--tol", "0"])
    assert rc == 0
    assert "not distinguishable" in capsys.readouterr().out


def test_identify_probe_needs_both_sides(tmp_path, capsys):
    ref = reference_params()
    pa = tmp_path / "a.json"
    save_params(ref, pa)
    rc = run(["identify-probe", "--params-a", pa])
    assert rc == 1
    assert "each side needs" in capsys.readouterr().err


def test_discount_beside_a_model_file_is_refused(tiny_dataset, tmp_path, capsys):
    # a model file carries its own discount: --discount beside one used to be
    # ignored while the report recorded it
    from spe.model import save_model

    model_path, params_path, out = tmp_path / "m.json", tmp_path / "p.json", tmp_path / "eval.json"
    save_model(build_engine_model(reference_params(), 0.9), model_path)
    save_params(reference_params(), params_path)
    evaluate = ["evaluate", "--data", tiny_dataset, "--grid-resolution", "11", "--out", out]
    for argv in (
        [*evaluate, "--model", model_path],
        ["bellman-solve", "--model", model_path, "--resolution", "11", "--out", tmp_path / "q.json"],
        ["identify-probe", "--model-a", model_path, "--params-b", params_path],
    ):
        assert run([*argv, "--discount", "0.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--discount" in err and "--model" in err
    assert not out.exists()
    # the report records the discount the model was solved at
    assert run([*evaluate, "--model", model_path]) == 0
    assert json.loads(out.read_text())["discount"] == 0.9
    # engine models keep 0.95 by default
    assert run([*evaluate, "--params", params_path]) == 0
    assert json.loads(out.read_text())["discount"] == 0.95
