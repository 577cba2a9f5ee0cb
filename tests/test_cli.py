import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import previewsafe
from previewsafe import cli, simulation
from previewsafe.cli import EXIT_USAGE, build_parser, main
from previewsafe.errors import ConfigError
from previewsafe.casestudies import ScalarPreviewProblem
from previewsafe.geometry import HPolytope, Hyperbox, set_equal
from previewsafe.jsonio import dumps_17g
from previewsafe.simulation import load_simulation_config
from previewsafe.systems import BrunovskyProblem, system_to_config


REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = Path(previewsafe.__file__).resolve().parents[1]


def run(args):
    return main(args)


class TestCheck:
    def test_feasible_exit_zero(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = run(["check", "--n", "10", "--c", "0.2", "--preview", "6", "--out", str(out)])
        assert code == 0
        verdict = json.loads(out.read_text())
        assert verdict["nonempty"] is True
        assert verdict["agreement"] is True

    def test_supercritical_exit_three(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = run(["check", "--n", "10", "--c", "0.23", "--preview", "10", "--out", str(out)])
        assert code == 3
        assert json.loads(out.read_text())["nonempty"] is False

    def test_malformed_config_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"n\": 3}")
        assert run(["check", "--system", str(bad)]) == 2
        dist = {"lo": [-0.1, -0.1], "hi": [0.1, 0.1]}
        configs = {
            "crossed_box": {"n": 2, "box": {"lo": [1.0, -1.0], "hi": [-1.0, 1.0]}, "disturbance": dist},
            "box_without_hi": {"n": 2, "box": {"lo": [-1.0, -1.0]}, "disturbance": dist},
            "n_not_a_number": {"n": "two", "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
                               "disturbance": dist},
            "box_of_wrong_dim": {"n": 2, "box": {"lo": [-1.0], "hi": [1.0]}, "disturbance": dist},
        }
        for name, config in configs.items():
            bad.write_text(json.dumps(config))
            for command in ("check", "invariant"):
                assert run([command, "--system", str(bad)]) == 2, (name, command)
                assert capsys.readouterr().err.startswith("error: "), (name, command)

    def test_missing_flags_exit_two(self):
        assert run(["check"]) == 2

    def test_brunovsky_config_file(self, tmp_path):
        cfg = tmp_path / "prob.json"
        cfg.write_text(dumps_17g({
            "n": 2,
            "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            "disturbance": {"lo": [-0.2, -0.2], "hi": [0.2, 0.2]},
            "preview": 1,
        }))
        assert run(["check", "--system", str(cfg)]) == 0


SHIFT_REGISTER = {
    "n": 2,
    "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    "disturbance": {"lo": [-0.2, -0.2], "hi": [0.2, 0.2]},
}


BAD_INTEGERS = [("preview", -1), ("preview", 1.7), ("preview", True), ("n", 2.9), ("n", True)]
# check reads the shift-register schema only; the matrix schema has no n
CONFIG_INTEGER_CASES = [
    (command, "shift_register", key, value)
    for command in ("check", "invariant")
    for key, value in BAD_INTEGERS
] + [("invariant", "matrix", key, value) for key, value in BAD_INTEGERS if key == "preview"]


@pytest.mark.parametrize(
    "command, schema, key, value", CONFIG_INTEGER_CASES,
    ids=[f"{c}-{s}-{k}={v}" for c, s, k, v in CONFIG_INTEGER_CASES],
)
def test_config_integers_are_checked(command, schema, key, value, tmp_path, capsys):
    # a negative preview used to end in a ValueError traceback (exit 1), and
    # 1.7, true or n = 2.9 were read as integers without a word
    if schema == "matrix":
        prob = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), Hyperbox.cube(2, 0.2), 0)
        data = system_to_config(prob.system())
    else:
        data = dict(SHIFT_REGISTER)
    data[key] = value
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg.write_text(json.dumps(data))
    assert run([command, "--system", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {key} must be a nonnegative integer, got {value!r}")
    assert not out.exists()


def test_check_empty_box_dim_must_be_a_positive_integer(tmp_path, capsys):
    # an empty box's dim of 2.9 used to be read as 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SHIFT_REGISTER, box={"empty": True, "dim": 2.9})))
    assert run(["check", "--system", str(cfg)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "dim must be a positive integer" in captured.err and captured.out == ""


def test_check_refuses_a_matrix_config_by_schema(tmp_path, capsys):
    # check reads the shift-register schema only; a matrix config used to be
    # reported as KeyError('n')
    prob = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), Hyperbox.cube(2, 0.2), 1)
    cfg = tmp_path / "sys.json"
    cfg.write_text(dumps_17g(system_to_config(prob.system(), preview=1)))
    assert run(["check", "--system", str(cfg)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "shift-register schema" in captured.err and captured.out == ""


SOURCE_ARGS = {
    "invariant": ["--method", "1"],
    "bounds": ["--p-low", "0", "--samples", "2000"],
    "simulate": ["--T", "5"],
}


@pytest.mark.parametrize("command", sorted(SOURCE_ARGS))
def test_case_and_system_together_exit_two(command, tmp_path, capsys):
    # --case and --system are one exclusive group; bounds used to print the
    # case's result and ignore the file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dumps_17g(system_to_config(ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, 1).system())))
    case = "lane_keeping" if command == "simulate" else "example2"
    out = tmp_path / "out"
    args = [command, "--case", case, "--system", str(cfg), *SOURCE_ARGS[command], "--out", str(out)]
    assert run(args) == EXIT_USAGE
    assert capsys.readouterr().out == "" and not out.exists()


@pytest.mark.parametrize("command", ["invariant", "bounds"])
def test_no_case_or_system_exit_two(command, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([command, *SOURCE_ARGS[command], "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().out == "" and not out.exists()


@pytest.mark.parametrize("command", ["check", "invariant", "sweep-c", "bounds", "simulate"])
def test_help_exits_zero(command, capsys):
    # argparse cannot write the usage line of an empty exclusive group
    assert run([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ")


@pytest.mark.parametrize("seed_set", [
    {"h": [1.0]},
    {"H": [[1.0], [-1.0]], "h": [1.0]},
    {"H": [[1.0]], "h": [1.0]},
], ids=["no_H", "rows_mismatch", "wrong_dimension"])
def test_bad_seed_set_exits_two(seed_set, tmp_path, capsys):
    # these used to end in a KeyError or ValueError traceback (exit 1)
    seed, out = tmp_path / "seed.json", tmp_path / "rep.json"
    seed.write_text(json.dumps(seed_set))
    args = ["invariant", "--case", "example2", "--preview", "2", "--method", "2"]
    assert run([*args, "--seed-set", str(seed), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--seed-set" in err
    assert not out.exists()


IGNORED_FLAGS = {
    "check_n_c_with_system": ["check", "--system", "{cfg}", "--n", "10", "--c", "0.9"],
    "check_box_halfwidth_with_system": ["check", "--system", "{cfg}", "--box-halfwidth", "2"],
    "seed_set_with_a_seeded_case": ["invariant", "--case", "example1", "--method", "2", "--seed-set", "{seed}"],
    "seed_set_with_method_1": ["invariant", "--case", "example1", "--method", "1", "--seed-set", "{missing}"],
    "method_with_closed_form": ["invariant", "--system", "{cfg}", "--closed-form", "--method", "1"],
    "K_with_closed_form": ["invariant", "--system", "{cfg}", "--closed-form", "--K", "3"],
    "max_iter_with_closed_form": ["invariant", "--system", "{cfg}", "--closed-form", "--max-iter", "5"],
    "seed_set_with_closed_form": ["invariant", "--system", "{cfg}", "--closed-form", "--method", "2", "--seed-set", "{missing}"],
    "K_with_method_1": ["invariant", "--case", "example1", "--method", "1", "--K", "3"],
    "K_with_the_default_method": ["invariant", "--case", "example2", "--K", "3"],
    "max_iter_with_a_seed_set": ["invariant", "--system", "{cfg}", "--method", "2", "--seed-set", "{missing}", "--max-iter", "5"],
    "max_iter_with_a_seeded_case": ["invariant", "--case", "example1", "--method", "2", "--max-iter", "5"],
}


@pytest.mark.parametrize("args", IGNORED_FLAGS.values(), ids=IGNORED_FLAGS.keys())
def test_ignored_flag_exits_two(args, tmp_path, capsys):
    # each used to exit 0 without reading the flag: the seed file is one
    # that the command would refuse, and the missing one is never opened
    cfg, seed = tmp_path / "sr.json", tmp_path / "seed.json"
    cfg.write_text(json.dumps(SHIFT_REGISTER))
    seed.write_text(json.dumps({"H": [[1.0]], "h": [1.0]}))
    paths = {"cfg": cfg, "seed": seed, "missing": tmp_path / "missing.json"}
    assert run([a.format(**paths) for a in args]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("content", [None, "{\"n\": 3,", "[1, 2]"], ids=["missing", "malformed", "array"])
def test_unreadable_system_file_exits_two(content, tmp_path, capsys):
    cfg = tmp_path / "sr.json"
    if content is not None:
        cfg.write_text(content)
    assert run(["invariant", "--system", str(cfg)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_check_above_the_vertex_cap_gives_the_inequality_verdict(capsys):
    # pbar = 24 is above the vertex test's cap of 20
    assert run(["check", "--n", "24", "--c", "0.001", "--preview", "24"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict == {"nonempty": True, "n": 24, "p": 24, "test": "inequality"}


def test_check_box_halfwidth_default_is_one(capsys):
    # the default is resolved in cmd_check, so unset and 1.0 agree
    assert run(["check", "--n", "3", "--c", "0.2"]) == 0
    unset = capsys.readouterr().out
    assert run(["check", "--n", "3", "--c", "0.2", "--box-halfwidth", "1.0"]) == 0
    assert capsys.readouterr().out == unset


@pytest.mark.parametrize("method, defaults", [("1", ["--max-iter", "200"]), ("2", ["--max-iter", "200", "--K", "10"])])
def test_invariant_defaults_apply_where_read(method, defaults, tmp_path, capsys):
    # --max-iter and --K are unset for invariant and resolved in each mode
    cfg = tmp_path / "sr.json"
    cfg.write_text(json.dumps(SHIFT_REGISTER))
    args = ["invariant", "--system", str(cfg), "--preview", "1", "--method", method]
    assert run(args) == 0
    unset = capsys.readouterr().out
    assert run([*args, *defaults]) == 0
    assert capsys.readouterr().out == unset


class TestInvariant:
    def test_budget_exit_is_reported(self, capsys):
        assert run(["invariant", "--case", "example2", "--preview", "2", "--max-iter", "1"]) == 0
        assert '"converged": false' in capsys.readouterr().out

    def test_closed_form_refuses_a_case(self, capsys):
        assert run(["invariant", "--case", "example2", "--closed-form"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "applies to shift-register configs only" in captured.err and captured.out == ""

    def test_example4_empty(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["invariant", "--case", "example4", "--method", "1", "--preview", "0", "--out", str(out)])
        assert code == 3
        rep = json.loads(out.read_text())
        assert rep["converged"] is True

    def test_example1_method2_seed_unchanged(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run([
            "invariant", "--case", "example1", "--method", "2", "--K", "10",
            "--preview", "1", "--out", str(out),
        ])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["per_step_rows"][0] == rep["per_step_rows"][-1]

    def test_closed_form_matches_method1(self, tmp_path):
        cfg = tmp_path / "prob.json"
        cfg.write_text(dumps_17g({
            "n": 2,
            "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            "disturbance": {"lo": [-0.2, -0.2], "hi": [0.2, 0.2]},
        }))
        closed = tmp_path / "closed.json"
        assert run(["invariant", "--system", str(cfg), "--preview", "1", "--closed-form", "--out", str(closed)]) == 0
        rec = json.loads(closed.read_text())["constraints"][0]
        assert (rec["k"], rec["j"]) == (2, 1)

        # the same problem as a generic matrix config through method 1
        from previewsafe.brunovsky import closed_form as cf, to_hpolytope
        from previewsafe.systems import BrunovskyProblem
        from previewsafe.geometry import Hyperbox

        prob = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), Hyperbox.cube(2, 0.2), 1)
        mat_cfg = tmp_path / "sys.json"
        mat_cfg.write_text(dumps_17g(system_to_config(prob.system(), preview=1)))
        rep_out = tmp_path / "m1.json"
        assert run(["invariant", "--system", str(mat_cfg), "--out", str(rep_out)]) == 0
        result = HPolytope.from_json(json.loads(rep_out.read_text())["result"])
        assert set_equal(result, to_hpolytope(cf(prob)))


    def test_closed_form_reads_the_config_once(self, tmp_path, monkeypatch):
        cfg = tmp_path / "problem.json"
        cfg.write_text(dumps_17g({
            "n": 2,
            "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            "disturbance": {"lo": [-0.2, -0.2], "hi": [0.2, 0.2]},
            "preview": 1,
        }))
        paths = []
        load = cli._load_json

        def counted(path):
            paths.append(path)
            return load(path)

        monkeypatch.setattr(cli, "_load_json", counted)
        out = tmp_path / "closed.json"
        assert run(["invariant", "--system", str(cfg), "--closed-form", "--out", str(out)]) == 0
        assert paths == [str(cfg)]
        assert json.loads(out.read_text())["p"] == 1

    @pytest.mark.parametrize("method", ["1", "2"])
    def test_shift_register_config_preview_reaches_methods(self, tmp_path, method):
        # the config's "preview" is the default for Method 1/2 as it is for
        # --closed-form and check: no flag gives the --preview 2 result
        cfg = tmp_path / "problem.json"
        cfg.write_text(dumps_17g({
            "n": 3,
            "box": {"lo": [-1.0, -1.2, -0.9], "hi": [1.1, 1.0, 1.0]},
            "disturbance": {"lo": [-0.2, -0.15, -0.1], "hi": [0.2, 0.15, 0.1]},
            "preview": 2,
        }))
        outs = []
        for flags in ([], ["--preview", "2"]):
            outs.append(tmp_path / f"rep{len(outs)}.json")
            args = ["invariant", "--system", str(cfg), "--method", method, "--out", str(outs[-1])]
            assert run(args + flags) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert len(json.loads(outs[0].read_text())["result"]["H"][0]) == 9


@pytest.mark.parametrize("name", ["A", "B", "E"])
def test_non_finite_system_matrix_exits_two(name, tmp_path, capsys):
    # the bundled model as a matrix config with one entry Infinity (json
    # writes it so); an infinite E used to print the empty set as converged
    # and exit 0
    sys_, _ = load_simulation_config(cli._bundled_config("lane_keeping"))
    data = system_to_config(sys_)
    data[name][0][0] = float("inf")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "rep.json"
    assert run(["invariant", "--system", str(cfg), "--method", "1", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: inconsistent system config: {name} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("model", "mass", 0.0, "mass must be positive"),
    ("model", "speed", 0.0, "speed must be positive"),
    ("model", "cf", float("inf"), "cf must be finite"),
    ("model", "yaw_inertia", -1.0, "yaw_inertia must be positive"),
    ("model", "dt", 0.0, "dt must be positive"),
    ("model", "dt", -0.1, "dt must be positive"),
    ("bounds", "steer", -1.0, "steer must be nonnegative"),
    ("bounds", "rd", float("nan"), "rd must be finite"),
    ("model", "lf", 1e200, "the model leaves the float range"),
    ("model", "cf", 1e308, "the model leaves the float range"),
    ("model", "mass", 1e-320, "the model leaves the float range"),
    ("model", "cf", -98389.0, "cf must be positive"),
], ids=["mass_zero", "speed_zero", "cf_inf", "inertia_negative", "dt_zero", "dt_negative",
        "steer_negative", "rd_nan", "lf_huge", "cf_huge", "mass_subnormal", "cf_negative"])
def test_bad_bicycle_config_exits_two(section, key, value, message, tmp_path, capsys):
    # the bundled model with one number edited; these used to raise
    # ZeroDivisionError, OverflowError, a RuntimeWarning or EmptySetError,
    # or were accepted
    data = cli._bundled_config("lane_keeping")
    data[section][key] = value
    with pytest.raises(ConfigError, match=message):
        load_simulation_config(data)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert run(["simulate", "--system", str(cfg), "--T", "5", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: inconsistent bicycle config: {message}")
    assert not out.exists()


@pytest.mark.parametrize("lqr, message", [
    ({"q_state": [1, 2]}, "q_state must be 4 finite nonnegative numbers"),
    ({"q_state": [1.0, float("nan"), 1.0, 1.0]}, "q_state must be 4 finite nonnegative numbers"),
    ({"q_state": [1.0, -1.0, 1.0, 1.0]}, "q_state must be 4 finite nonnegative numbers"),
    ({"r": "abc"}, "r must be one finite positive number"),
    ({"r": 0}, "r must be one finite positive number"),
    ({"r": -1}, "r must be one finite positive number"),
    ({"r": [1.0]}, "r must be one finite positive number"),
    ([1.0], "lqr must be a JSON object"),
], ids=["q_short", "q_nan", "q_negative", "r_string", "r_zero", "r_negative", "r_list", "not_an_object"])
def test_bad_lqr_block_exits_two(lqr, message, tmp_path, capsys):
    # a short or NaN q_state and a string r used to end in a ValueError or
    # LinAlgError traceback (exit 1); r = 0 and r = -1 were accepted
    data = cli._bundled_config("lane_keeping")
    data["lqr"] = lqr
    with pytest.raises(ConfigError, match=message):
        load_simulation_config(data)
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(data))
    assert run(["simulate", "--system", str(cfg), "--T", "5", "--out", str(out)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_lqr_block_is_returned_as_written():
    # the options keep their keys and values; readers supply the defaults
    data = cli._bundled_config("lane_keeping")
    assert load_simulation_config(data)[1] == {"q_state": [1.0, 1.0, 1.0, 1.0], "r": 1.0}
    del data["lqr"]
    assert load_simulation_config(data)[1] == {}


def test_huge_bicycle_speed_runs_without_a_warning(tmp_path):
    # speed 1e300 gives a finite model whose set rows have entries whose
    # squares overflow; their norms used to raise numpy's overflow warning,
    # an error under -W error::RuntimeWarning, as a traceback with exit 1
    data = cli._bundled_config("lane_keeping")
    data["model"]["speed"] = 1e300
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(data))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
    code = "import sys; from previewsafe.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code,
         "simulate", "--system", str(cfg), "--T", "5", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3 and proc.stderr == "", proc.stderr
    assert json.loads((out / "summary.json").read_text())["gap_found"] is False


FLAT_CSV = [
    (["check", "--n", "4", "--c", "0.1", "--preview", "2"], 0,
     "key,value\nnonempty,true\nn,4\np,2\ntest,inequality\nvertex_test,true\nagreement,true\n"),
    (["check", "--n", "4", "--c", "0.4", "--preview", "1"], 3,
     "key,value\nnonempty,false\nn,4\np,1\ntest,inequality\nvertex_test,false\nagreement,true\n"),
    (["bounds", "--case", "example2", "--p-low", "1", "--preview", "2", "--samples", "2000", "--seed", "3"], 0,
     "key,value\ninner_vol,3.9920038070678712\nouter_vol,16\ngap,12.007996192932129\n"),
]


@pytest.mark.parametrize("args, code, text", FLAT_CSV, ids=["check_nonempty", "check_empty", "bounds"])
def test_flat_csv_bytes(args, code, text, capsys):
    # the CSV branch of the flat writer: booleans lower-case, floats at 17
    # significant digits with integral values written as integers
    assert run([*args, "--format", "csv"]) == code
    assert capsys.readouterr().out == text


class TestSweep:
    def test_values_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(["sweep-c", "--n", "6", "--p-max", "7", "--out", str(out1)]) == 0
        assert run(["sweep-c", "--n", "6", "--p-max", "7", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = out1.read_text().strip().splitlines()
        assert rows[0] == "p,largest_c"
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_unbounded_c_is_infinity(self, capsys):
        # at n = 1 any c is tolerable once previewed; the flat writer spells inf Infinity
        assert run(["sweep-c", "--n", "1", "--p-max", "2"]) == 0
        assert capsys.readouterr().out == "p,largest_c\n0,1\n1,Infinity\n2,Infinity\n"

    def test_paper_sweep_golden(self, capsys):
        assert run(["sweep-c", "--n", "10", "--p-max", "12"]) == 0
        assert capsys.readouterr().out == (
            "p,largest_c\n"
            "0,0.10000000000000001\n"
            "1,0.1111111111111111\n"
            "2,0.125\n"
            "3,0.14285714285714285\n"
            "4,0.16666666666666666\n"
            "5,0.20000000000000001\n"
            "6,0.22222222222222221\n"
            "7,0.22222222222222221\n"
            "8,0.22222222222222221\n"
            "9,0.22222222222222221\n"
            "10,0.22222222222222221\n"
            "11,0.22222222222222221\n"
            "12,0.22222222222222221\n"
        )


def test_shift_register_closed_form_golden(tmp_path, capsys):
    # the one CLI output that writes the closed form's scalar bounds: an
    # asymmetric box and disturbance box, n = 4 and p = 2, so constraint
    # (4, 1) subtracts the never-previewed tail c_1 from [b_{1,1}, b_{1,2}]
    cfg = tmp_path / "problem.json"
    cfg.write_text(json.dumps({
        "n": 4,
        "box": {"lo": [-1.0, -1.2, -0.9, -1.1], "hi": [1.1, 1.0, 1.3, 0.95]},
        "disturbance": {"lo": [-0.1, -0.15, -0.05, -0.2], "hi": [0.2, 0.1, 0.15, 0.05]},
        "preview": 2,
    }))
    assert run(["invariant", "--system", str(cfg), "--closed-form"]) == 0
    assert capsys.readouterr().out == (
        '{\n'
        '  "n": 4,\n'
        '  "p": 2,\n'
        '  "box": {\n'
        '    "lo": [-1, -1.2, -0.90000000000000002, -1.1000000000000001],\n'
        '    "hi": [1.1000000000000001, 1, 1.3, 0.94999999999999996]\n'
        '  },\n'
        '  "dist_box": {\n'
        '    "lo": [-0.10000000000000001, -0.14999999999999999, -0.050000000000000003, -0.20000000000000001],\n'
        '    "hi": [0.20000000000000001, 0.10000000000000001, 0.14999999999999999, 0.050000000000000003]\n'
        '  },\n'
        '  "constraints": [\n'
        '    {\n'
        '      "k": 2,\n'
        '      "j": 1,\n'
        '      "dcoords": [\n'
        '        [1, 1]\n'
        '      ],\n'
        '      "bound": {\n'
        '        "lo": -1,\n'
        '        "hi": 1.1000000000000001\n'
        '      }\n'
        '    },\n'
        '    {\n'
        '      "k": 3,\n'
        '      "j": 1,\n'
        '      "dcoords": [\n'
        '        [1, 2],\n'
        '        [2, 1]\n'
        '      ],\n'
        '      "bound": {\n'
        '        "lo": -1,\n'
        '        "hi": 1.1000000000000001\n'
        '      }\n'
        '    },\n'
        '    {\n'
        '      "k": 3,\n'
        '      "j": 2,\n'
        '      "dcoords": [\n'
        '        [1, 2]\n'
        '      ],\n'
        '      "bound": {\n'
        '        "lo": -1.2,\n'
        '        "hi": 1\n'
        '      }\n'
        '    },\n'
        '    {\n'
        '      "k": 4,\n'
        '      "j": 1,\n'
        '      "dcoords": [\n'
        '        [1, 3],\n'
        '        [2, 2]\n'
        '      ],\n'
        '      "bound": {\n'
        '        "lo": -0.90000000000000002,\n'
        '        "hi": 0.90000000000000013\n'
        '      }\n'
        '    },\n'
        '    {\n'
        '      "k": 4,\n'
        '      "j": 2,\n'
        '      "dcoords": [\n'
        '        [1, 3],\n'
        '        [2, 2]\n'
        '      ],\n'
        '      "bound": {\n'
        '        "lo": -1.2,\n'
        '        "hi": 1\n'
        '      }\n'
        '    },\n'
        '    {\n'
        '      "k": 4,\n'
        '      "j": 3,\n'
        '      "dcoords": [\n'
        '        [1, 3]\n'
        '      ],\n'
        '      "bound": {\n'
        '        "lo": -0.90000000000000002,\n'
        '        "hi": 1.3\n'
        '      }\n'
        '    }\n'
        '  ]\n'
        '}\n'
    )


# Flags that no command reads; each must be refused as a usage error.
UNREAD_FLAGS = [
    ("check", "--case", "example2"),
    ("check", "--max-iter", "5"),
    ("check", "--tol", "1e-9"),
    ("check", "--seed", "0"),
    ("check", "--vertex-cap", "20"),
    ("invariant", "--tol", "1e-9"),
    ("invariant", "--seed", "0"),
    ("invariant", "--format", "json"),
    ("invariant", "--n", "2"),
    ("invariant", "--c", "0.1"),
    ("invariant", "--box-halfwidth", "1"),
    ("sweep-c", "--tol", "1e-9"),
    ("sweep-c", "--preview", "2"),
    ("sweep-c", "--max-iter", "5"),
    ("sweep-c", "--seed", "0"),
    ("sweep-c", "--format", "json"),
    ("bounds", "--tol", "1e-9"),
    ("simulate", "--tol", "1e-9"),
    ("simulate", "--format", "json"),
]
VALID_ARGS = {
    "check": ["--n", "4", "--c", "0.1"],
    "invariant": ["--case", "example2"],
    "sweep-c": ["--n", "2", "--p-max", "1"],
    "bounds": ["--case", "example2", "--p-low", "0"],
    "simulate": ["--case", "lane_keeping"],
}


@pytest.mark.parametrize(
    "command,flag,value", UNREAD_FLAGS, ids=[f"{c}{f}" for c, f, _ in UNREAD_FLAGS]
)
def test_unread_flag_is_a_usage_error(command, flag, value, capsys):
    parser = build_parser()
    parser.parse_args([command, *VALID_ARGS[command]])
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, *VALID_ARGS[command], flag, value])
    assert exc.value.code == EXIT_USAGE
    assert flag in capsys.readouterr().err


OUT_OF_RANGE = [
    ("check", "--c", ["--n", "4", "--c", "-0.1"]),
    ("check", "--c", ["--n", "2", "--c", "nan"]),
    ("check", "--n", ["--n", "0", "--c", "0.1"]),
    ("check", "--box-halfwidth", ["--n", "2", "--c", "0.1", "--box-halfwidth", "-1"]),
    ("check", "--preview", ["--n", "2", "--c", "0.1", "--preview", "-1"]),
    ("invariant", "--max-iter", ["--case", "example2", "--max-iter", "0"]),
    ("invariant", "--K", ["--case", "example2", "--method", "2", "--K", "-1"]),
    ("invariant", "--preview", ["--case", "example2", "--preview", "-1"]),
    ("sweep-c", "--p-max", ["--n", "2", "--p-max", "-1"]),
    ("sweep-c", "--n", ["--n", "0", "--p-max", "2"]),
    ("sweep-c", "--box-halfwidth", ["--n", "2", "--p-max", "2", "--box-halfwidth", "-1"]),
    ("bounds", "--samples", ["--case", "example2", "--p-low", "0", "--preview", "2", "--samples", "-5"]),
    ("bounds", "--samples", ["--case", "example2", "--p-low", "0", "--preview", "2", "--samples", "0"]),
    ("bounds", "--max-iter", ["--case", "example2", "--p-low", "0", "--preview", "2", "--max-iter", "0"]),
    ("simulate", "--preview", ["--preview", "-1", "--T", "5"]),
    ("simulate", "--T", ["--T", "-1"]),
    ("simulate", "--max-iter", ["--max-iter", "0", "--T", "5"]),
    ("simulate", "--K", ["--K", "-1", "--T", "5"]),
]


@pytest.mark.parametrize(
    "command,flag,args", OUT_OF_RANGE,
    ids=[f"{c}{f}={a[a.index(f) + 1]}" for c, f, a in OUT_OF_RANGE],
)
def test_out_of_range_number_is_a_usage_error(command, flag, args, tmp_path, capsys):
    # these used to end in a traceback, a "numerical failure" or a silent
    # exit 0 with a meaningless result
    out = tmp_path / "out"
    assert run([command, *args, "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"argument {flag}: must be at least" in captured.err
    assert captured.out == "" and not out.exists()


class TestBounds:
    def test_example2_gap(self, tmp_path):
        out = tmp_path / "bounds.json"
        code = run([
            "bounds", "--case", "example2", "--p-low", "0", "--preview", "1",
            "--samples", "50000", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["gap"] >= 0.0
        assert data["outer_vol"] > data["inner_vol"]

    def test_example4_inner_zero(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert run([
            "bounds", "--case", "example4", "--p-low", "0", "--preview", "1",
            "--samples", "20000", "--out", str(out),
        ]) == 0
        data = json.loads(out.read_text())
        assert data["inner_vol"] == 0.0
        assert data["outer_vol"] > 0.0

    @pytest.mark.parametrize("p_low,preview", [("0", "0"), ("1", "1"), ("-1", "1"), ("0", "-2")])
    def test_p_low_outside_preview_exit_two(self, p_low, preview, tmp_path, capsys):
        # --preview 0 used to be read as 1 and print the p = 1 result
        out = tmp_path / "bounds.json"
        code = run([
            "bounds", "--case", "example2", "--p-low", p_low, "--preview", preview,
            "--samples", "2000", "--out", str(out),
        ])
        assert code == EXIT_USAGE
        assert "--p-low" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_preview_means_one(self, capsys):
        args = ["bounds", "--case", "example2", "--p-low", "0", "--samples", "2000"]
        assert run(args) == 0
        implicit = capsys.readouterr().out
        assert run([*args, "--preview", "1"]) == 0
        assert capsys.readouterr().out == implicit


    def test_preview_from_the_config(self, tmp_path, capsys):
        # without --preview the config's "preview" sets p, as for invariant;
        # it used to run at p = 1 or refuse --p-low 2 ("got 2, 1")
        data = system_to_config(ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, 1).system(), preview=3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        args = ["bounds", "--system", str(cfg), "--p-low", "2", "--samples", "2000"]
        assert run(args) == 0
        implicit = capsys.readouterr().out
        assert run([*args, "--preview", "3"]) == 0
        assert capsys.readouterr().out == implicit
        # the flag still wins over the config
        assert run([*args, "--preview", "2"]) == EXIT_USAGE
        assert "(got 2, 2)" in capsys.readouterr().err

    def test_shift_register_config_matches_its_matrix_twin(self, tmp_path, capsys):
        # bounds reads a shift-register config as invariant does; it used to
        # fail with "malformed system config: 'A'"
        prob = BrunovskyProblem.create(2, Hyperbox.cube(2, 1.0), Hyperbox.cube(2, 0.2), 2)
        shift, twin = tmp_path / "shift.json", tmp_path / "twin.json"
        shift.write_text(json.dumps(dict(SHIFT_REGISTER, preview=2)))
        twin.write_text(dumps_17g(system_to_config(prob.system(), preview=2)))
        outputs = []
        for cfg in (shift, twin):
            assert run(["bounds", "--system", str(cfg), "--p-low", "1", "--samples", "2000"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].startswith("{")


class TestSimulate:
    def test_lane_keeping_outputs(self, tmp_path):
        outdir = tmp_path / "sim"
        code = run([
            "simulate", "--case", "lane_keeping", "--preview", "5", "--T", "60",
            "--seed", "0", "--out", str(outdir),
        ])
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["gap_found"] is True
        assert summary["first_unsafe_preview"] is None
        assert summary["first_unsafe_no_preview"] is not None
        preview_csv = (outdir / "trace_preview.csv").read_text()
        assert preview_csv.splitlines()[0].startswith("t,x1,x2,x3,x4,u_nom,u,d1")

    def test_zero_steps_write_the_header_rows(self, tmp_path):
        outdir = tmp_path / "sim"
        assert run([
            "simulate", "--case", "lane_keeping", "--preview", "2", "--T", "0",
            "--seed", "0", "--out", str(outdir),
        ]) == 0
        header = "t,x1,x2,x3,x4,u_nom,u,d1,supervised,safe,adm_lo,adm_hi\n"
        for name in ("trace_preview.csv", "trace_no_preview.csv"):
            assert (outdir / name).read_text() == header

    def test_deterministic_reruns(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert run([
                "simulate", "--case", "lane_keeping", "--preview", "3", "--T", "30",
                "--seed", "7", "--out", str(d),
            ]) == 0
        for name in ("summary.json", "trace_preview.csv", "trace_no_preview.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_matrix_config_reproduces_the_bicycle_case(self, tmp_path):
        # the bundled model as a matrix config with no lqr block: the matrix
        # branch of the config reader and the default state weights
        sys_, _ = load_simulation_config(cli._bundled_config("lane_keeping"))
        config = tmp_path / "lane.json"
        config.write_text(json.dumps(system_to_config(sys_)))
        flags = ["--preview", "2", "--T", "30", "--seed", "0"]
        assert run(["simulate", "--case", "lane_keeping", *flags, "--out", str(tmp_path / "case")]) == 0
        assert run(["simulate", "--system", str(config), *flags, "--out", str(tmp_path / "system")]) == 0
        for name in ("summary.json", "trace_preview.csv", "trace_no_preview.csv"):
            assert (tmp_path / "case" / name).read_bytes() == (tmp_path / "system" / name).read_bytes()

    def test_no_gap_exits_three_with_the_summary_only(self, tmp_path):
        # with no road curvature the grown set is the lifted seed
        data = cli._bundled_config("lane_keeping")
        data["bounds"]["rd"] = 0.0
        config = tmp_path / "flat.json"
        config.write_text(json.dumps(data))
        outdir = tmp_path / "sim"
        assert run([
            "simulate", "--system", str(config), "--preview", "2", "--T", "30", "--out", str(outdir),
        ]) == 3
        assert sorted(os.listdir(outdir)) == ["summary.json"]
        assert json.loads((outdir / "summary.json").read_text())["gap_found"] is False

    def test_polytope_disturbance_exits_two_before_any_set(self, tmp_path, capsys, monkeypatch):
        # the candidate scripts are vertices of a box; the bicycle's
        # disturbance as an hpoly used to crash after Method 1 and 2
        sys_, _ = load_simulation_config(cli._bundled_config("lane_keeping"))
        data = system_to_config(sys_)
        rd = float(sys_.dist_set.hi[0])
        data["disturbance"] = {"type": "hpoly", "H": [[1.0], [-1.0]], "h": [rd, rd]}
        config = tmp_path / "hpoly.json"
        config.write_text(dumps_17g(data))

        def no_set_computation(*args):
            raise AssertionError("Method 1 ran")

        monkeypatch.setattr(simulation, "method1", no_set_computation)
        outdir = tmp_path / "sim"
        args = ["simulate", "--system", str(config), "--preview", "2", "--T", "30", "--out", str(outdir)]
        assert run(args) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "box" in captured.err
        assert not outdir.exists()


@pytest.mark.parametrize("value, text", [
    (float("nan"), "NaN"), ({}, "{}"), ([], "[]"), (np.int64(3), "3"),
    ({"a": [1, 2.5, float("-inf")], "b": [[]]}, '{\n  "a": [1, 2.5, -Infinity],\n  "b": [\n    []\n  ]\n}'),
])
def test_dumps_17g_values(value, text):
    assert dumps_17g(value) == text + "\n"


def test_dumps_17g_refuses_an_unknown_object():
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps_17g({"x": object()})


def run_console_script(args, log=None):
    """Run the `previewsafe` console script as a separate process.

    Uses the installed script when it is on PATH; otherwise runs the
    `[project.scripts]` target from pyproject.toml the way the generated
    launcher does. Either way the imported package's `src` directory leads
    the child's PYTHONPATH, so it runs the code under test from any working
    directory. `log` sets PREVIEWSAFE_LOG; None leaves it unset.
    """
    script = shutil.which("previewsafe")
    if script:
        cmd = [script]
    else:
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["previewsafe"]
        module, func = target.split(":")
        cmd = [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]
    env = {k: v for k, v in os.environ.items() if k != "PREVIEWSAFE_LOG"}
    if log is not None:
        env["PREVIEWSAFE_LOG"] = log
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run(cmd + list(args), capture_output=True, text=True, env=env)


class TestEntryPoint:
    def test_console_script(self):
        proc = run_console_script(["check", "--n", "4", "--c", "0.1", "--preview", "2"])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["nonempty"] is True

    def test_env_log_variable(self):
        args = ["sweep-c", "--n", "3", "--p-max", "2"]
        proc = run_console_script(args, log="DEBUG")
        assert proc.returncode == 0, proc.stderr
        plain = run_console_script(args)
        assert plain.returncode == 0, plain.stderr
        assert proc.stdout.startswith("p,largest_c"), proc.stderr
        assert proc.stdout == plain.stdout

    def test_simulate_debug_log_leaves_outputs(self, tmp_path):
        # the rollout's DEBUG branch formats a record per changed step; the
        # files must be the ones a run without it writes
        args = ["simulate", "--case", "lane_keeping", "--preview", "2", "--T", "30", "--seed", "0"]
        runs = {}
        for log in ("DEBUG", None):
            out = tmp_path / str(log)
            proc = run_console_script(args + ["--out", str(out)], log=log)
            assert proc.returncode == 0, proc.stderr
            runs[log] = proc.stderr, {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert set(runs["DEBUG"][1]) == {"summary.json", "trace_preview.csv", "trace_no_preview.csv"}
        assert runs["DEBUG"][1] == runs[None][1]
        assert "supervise: t=" in runs["DEBUG"][0]
        assert "supervise: t=" not in runs[None][0]

    def test_env_log_non_level_name_falls_back(self):
        proc = run_console_script(["sweep-c", "--n", "3", "--p-max", "2"], log="basic_format")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("p,largest_c"), proc.stderr
