import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from cqbounds import CQSource, ValidationError, random_density
from cqbounds import verify as vf
from cqbounds import cli
from cqbounds.cli import main
from cqbounds.model_io import load_model, save_model


@pytest.fixture
def model_path(tmp_path):
    s0 = random_density(2, 84, min_eig_floor=0.02)
    s1 = random_density(2, 85, min_eig_floor=0.02)
    src = CQSource(["0", "1"], [0.5, 0.5], [s0, s1])
    path = tmp_path / "model.json"
    save_model(path, src, alt_states=[src.rho_y, src.rho_y])
    return str(path)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_load_model_roundtrip(model_path):
    src, alt = load_model(model_path)
    assert src.size == 2 and src.d_y == 2
    assert alt is not None and len(alt) == 2


def test_load_model_validation_messages(tmp_path, model_path):
    doc = json.loads(_read(model_path))
    bad = dict(doc)
    bad["q_x"] = [0.5, 0.49]
    p = tmp_path / "bad_q.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match="q_x"):
        load_model(p)

    bad = json.loads(_read(model_path))
    bad["states"][1][0][1] = [5.0, 3.0]  # breaks Hermiticity
    p = tmp_path / "bad_state.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match=r"states\[1\]"):
        load_model(p)

    bad = json.loads(_read(model_path))
    bad["schema_version"] = 99
    p = tmp_path / "bad_version.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match="schema_version"):
        load_model(p)

    p = tmp_path / "bad_json.json"
    p.write_text("{not json")
    with pytest.raises(ValidationError, match="JSON"):
        load_model(p)


@pytest.mark.parametrize("entry", ["half", float("nan"), float("inf"), True, None])
def test_load_model_rejects_malformed_q_x_entries(model_path, tmp_path, capsys, entry):
    doc = json.loads(_read(model_path))
    doc["q_x"] = [entry, 0.5]
    p = tmp_path / "bad_q_entry.json"
    p.write_text(json.dumps(doc))  # NaN and inf are written as NaN / Infinity
    with pytest.raises(ValidationError, match=r"q_x\[0\]: expected a finite number"):
        load_model(p)
    out = tmp_path / "r.txt"
    assert main(["entropy", "--model", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: q_x[0]")
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("family, entry", [
    ("states", (0, 1, 1)), ("states", (0, 0, 1)),
    ("alt_states", (1, 1, 1)), ("alt_states", (1, 1, 0)),
], ids=["states-diagonal", "states-off-diagonal", "alt-diagonal", "alt-off-diagonal"])
def test_load_model_rejects_non_finite_state_entries(model_path, tmp_path, capsys, value,
                                                     family, entry):
    doc = json.loads(_read(model_path))
    i, r, c = entry
    doc[family][i][r][c][0] = value
    p = tmp_path / "bad_state_entry.json"
    p.write_text(json.dumps(doc))  # NaN and inf are written as NaN / Infinity
    where = f"{family}[{i}][{r}][{c}]"
    with pytest.raises(ValidationError, match=f"^{re.escape(where)}: expected finite numbers"):
        load_model(p)
    out = tmp_path / "r.txt"
    assert main(["entropy", "--model", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}")
    assert not out.exists()


@pytest.mark.parametrize("make, match", [
    (lambda p: p.mkdir(), "cannot read model file"),
    (lambda p: p.write_bytes(b'\xff\xfe{"schema_version": 1}'), "not UTF-8"),
], ids=["directory", "not-utf8"])
def test_load_model_rejects_unreadable_files(tmp_path, capsys, make, match):
    p = tmp_path / "model.json"
    make(p)
    with pytest.raises(ValidationError, match=match):
        load_model(p)
    out = tmp_path / "r.txt"
    assert main(["entropy", "--model", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cqsource_rejects_nan_probabilities():
    s0 = random_density(2, 84, min_eig_floor=0.02)
    with pytest.raises(ValidationError, match="sums to nan"):
        CQSource(["0", "1"], [float("nan"), 0.5], [s0, s0])


def test_cli_exit_codes(model_path, tmp_path):
    out = str(tmp_path / "r.txt")
    assert main(["entropy", "--model", model_path, "--out", out]) == 0
    assert "I_XY" in _read(out)

    # precondition: blocklength below the theorem threshold
    code = main([
        "sc-bound", "--model", model_path, "--r", "0.3", "--eps", "0.5",
        "--n", "5", "--out", out,
    ])
    assert code == 3

    # resource cap: too many encoders
    code = main([
        "beta", "--model", model_path, "--n", "3", "--eps", "0.3",
        "--r1", str(math.log(9.0)), "--out", out,
    ])
    assert code == 4

    # validation: broken model file
    bad = tmp_path / "broken.json"
    bad.write_text("{}")
    assert main(["entropy", "--model", str(bad), "--out", out]) == 2


def test_cli_beta_and_units(model_path, tmp_path):
    out = str(tmp_path / "beta.txt")
    assert main([
        "beta", "--model", model_path, "--n", "1", "--eps", "0.3",
        "--r1", str(math.log(2.5)), "--out", out,
    ]) == 0
    text = _read(out)
    assert "beta_min" in text and "w_size = 2" in text

    # the bits flag converts the rate at the boundary: log2(2.5) bits = ln(2.5) nats
    out2 = str(tmp_path / "beta_bits.txt")
    assert main([
        "beta", "--model", model_path, "--n", "1", "--eps", "0.3",
        "--r1", str(math.log2(2.5)), "--bits", "--out", out2,
    ]) == 0
    t1 = [l for l in _read(out).splitlines() if l.startswith("beta_min")]
    t2 = [l for l in _read(out2).splitlines() if l.startswith("beta_min")]
    assert t1 == t2


def test_cli_entropy_bits_tagging(model_path, tmp_path):
    out_n = str(tmp_path / "nats.txt")
    out_b = str(tmp_path / "bits.txt")
    assert main(["entropy", "--model", model_path, "--out", out_n]) == 0
    assert main(["entropy", "--model", model_path, "--bits", "--out", out_b]) == 0
    nats = dict(
        line.split(" = ") for line in _read(out_n).splitlines() if line.startswith("H_X")
    )
    bits = dict(
        line.split(" = ") for line in _read(out_b).splitlines() if line.startswith("H_X")
    )
    v_nats = float(nats["H_X"].split(" ")[0])
    v_bits = float(bits["H_X"].split(" ")[0])
    assert abs(v_nats - v_bits * math.log(2.0)) < 1e-12
    assert "[bits]" in _read(out_b)
    assert "[nats]" in _read(out_n)


def test_cli_verify_suite_and_csv(model_path, tmp_path):
    out = str(tmp_path / "verify.txt")
    assert main(["verify", "--suite", "alt", "--seed", "11", "--instances", "30",
                 "--out", out]) == 0
    text = _read(out)
    assert "suite[alt].pass = true" in text
    csv_text = _read(str(tmp_path / "verify.alt.csv"))
    header = csv_text.splitlines()[0].split(",")
    assert header[:2] == ["instance_id", "seed"]
    assert header[-3:] == ["lhs", "rhs", "margin"]
    assert len(csv_text.splitlines()) == 31

    assert main(["verify", "--seed", "1", "--out", out]) == 2  # no suite chosen
    assert main(["verify", "--suite", "nope", "--seed", "1", "--out", out]) == 2


def test_cli_verify_exits_5_when_a_suite_fails(monkeypatch, tmp_path):
    failing = vf._finish("alt", ["instance_id", "margin"], [[0, -1.0]], [-1.0], 1e-9)
    monkeypatch.setitem(vf.SUITES, "alt", lambda seed, budget: failing)
    out = str(tmp_path / "v.txt")
    assert main(["verify", "--suite", "alt", "--seed", "1", "--out", out]) == 5
    # the report and the margin table are written as for a passing suite
    text = _read(out)
    assert "suite[alt].pass = false" in text and "overall_pass = false" in text
    assert _read(str(tmp_path / "v.alt.csv")).splitlines() == ["instance_id,margin", "0,-1.0"]


def test_cli_sweep(model_path, tmp_path):
    out = str(tmp_path / "s.txt")
    assert main([
        "sweep", "--model", model_path, "--quantity", "bottleneck", "--param", "r",
        "--values", "0.0,0.4", "--out", out,
    ]) == 0
    lines = _read(str(tmp_path / "s.sweep.csv")).splitlines()
    assert lines[0] == "instance_id,seed,r,lhs,rhs,margin"
    assert len(lines) == 3
    assert main([
        "sweep", "--model", model_path, "--quantity", "bottleneck", "--param", "zzz",
        "--values", "0.1", "--out", out,
    ]) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "150.7"])
def test_cli_sweep_rejects_n_values_that_are_not_integers(model_path, tmp_path, capsys, value):
    out = tmp_path / "s.txt"
    assert main([
        "sweep", "--model", model_path, "--quantity", "sc-bound", "--param", "n",
        "--values", value, "--r", "0.3", "--out", str(out),
    ]) == 2
    assert "must be finite integers" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "s.sweep.csv").exists()


def test_cli_verify_rejects_a_negative_budget(tmp_path, capsys):
    out = tmp_path / "v.txt"
    assert main(["verify", "--suite", "alt", "--seed", "1", "--instances", "-1",
                 "--out", str(out)]) == 2
    assert "instances must be nonnegative" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "v.alt.csv").exists()


@pytest.mark.parametrize("suite", ["alt", "np-trend"])
def test_cli_verify_rejects_a_negative_seed(tmp_path, capsys, suite):
    out = tmp_path / "v.txt"
    assert main(["verify", "--suite", suite, "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / f"v.{suite}.csv").exists()


def test_cli_seeded_rerun_is_identical(model_path, tmp_path):
    out = str(tmp_path / "d.txt")
    argv = ["verify", "--suite", "entropy-dp", "--seed", "3", "--instances", "25",
            "--out", out]
    assert main(argv) == 0
    first = _read(out), _read(str(tmp_path / "d.entropy-dp.csv"))
    assert main(argv) == 0
    second = _read(out), _read(str(tmp_path / "d.entropy-dp.csv"))
    assert first == second


@pytest.mark.parametrize("argv", [
    ["delta-star", "--c", "nan"],
    ["delta-star", "--c", "inf"],
    ["sc-bound", "--r", "nan", "--eps", "0.5", "--n", "100"],
    ["sc-bound", "--r", "inf", "--eps", "0.5", "--n", "100"],
    ["source-bound", "--log-w1", "nan", "--eps", "0.5", "--n", "200"],
    ["source-bound", "--log-w1", "inf", "--eps", "0.5", "--n", "200"],
    ["delta", "--c", "nan"],
    ["delta", "--c", "inf"],
])
def test_cli_rejects_non_finite_weights_and_rates(model_path, tmp_path, argv):
    out = tmp_path / "r.txt"
    assert main(argv + ["--model", model_path, "--out", str(out)]) == 2
    assert not out.exists()  # no report, so no row reads nan


@pytest.mark.parametrize("argv", [
    ["delta", "--c", "1.5", "--nu", "bogus"],
    ["image-size", "--c", "1.0", "--delta", "0.5", "--eps", "0.9", "--n", "100",
     "--sigma", "bogus"],
])
def test_cli_unknown_reference_state_exits_2(model_path, tmp_path, capsys, argv):
    out = tmp_path / "r.txt"
    assert main(argv + ["--model", model_path, "--out", str(out)]) == 2
    assert "unknown reference state 'bogus' (use avg or mixed)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["beta", "--n", "3", "--eps", "0.3", "--r1", "1000"],
    ["theta", "--n", "2", "--r1", "1000"],
])
def test_cli_rate_beyond_float_range_hits_encoder_cap(model_path, tmp_path, capsys, argv):
    # e^(n r1) overflows a float here; the encoder cap must still decide
    out = tmp_path / "r.txt"
    code = main(argv + ["--model", model_path, "--out", str(out)])
    assert code == 4
    assert "exceed the enumeration cap" in capsys.readouterr().err
    assert not out.exists()


def test_cli_delta_star_at_large_c(tmp_path, capsys):
    # at c = 1e9 the two forms of the value differ by rounding (3e-16
    # relative); at c = 1e308 the mirror step overflows
    out = tmp_path / "r.txt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["delta-star", "--c", "1e9", "--model", EXAMPLE_MODEL, "--out", str(out)]) == 0
        assert main(["delta-star", "--c", "1e308", "--model", EXAMPLE_MODEL,
                     "--out", str(tmp_path / "huge.txt")]) == 2
    assert not caught
    assert math.isfinite(float(re.search(r"delta_star = (\S+)", _read(out)).group(1)))
    assert capsys.readouterr().err == "error: c = 1e+308 overflows the mirror-ascent step\n"
    assert not (tmp_path / "huge.txt").exists()


def test_cli_theta_rejects_a_negative_rate(model_path, tmp_path, capsys):
    out = tmp_path / "r.txt"
    assert main(["theta", "--n", "2", "--r1", "-1", "--model", model_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: rate must be nonnegative; got -1.0\n"
    assert not out.exists()
    # r1 = 0 is one message, |W| = 1
    assert main(["theta", "--n", "2", "--r1", "0", "--model", model_path, "--out", str(out)]) == 0


@pytest.mark.parametrize("argv", [
    ["entropy", "--model", None],
    ["verify", "--suite", "alt", "--seed", "1", "--instances", "3"],
])
def test_cli_unwritable_out_exits_2_without_traceback(model_path, tmp_path, capsys, argv):
    argv = [model_path if a is None else a for a in argv]
    code = main(argv + ["--out", str(tmp_path / "missing" / "r.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1


EXAMPLE_MODEL = str(Path(__file__).resolve().parents[1] / "model.example.json")


def test_cli_commands_load_no_scipy_linalg_or_special(tmp_path):
    # a fresh process: this one has imported scipy.linalg already.  The
    # commands below meet no rank-deficient Neyman-Pearson block, so scipy's
    # linalg and special trees (most of a cold start) must stay unloaded
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(vf.__file__)))
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    commands = [["entropy"], ["beta", "--n", "4", "--eps", "0.3"], ["delta", "--c", "1.5"]]
    code = (
        "import sys\n"
        "from cqbounds import cli\n"
        f"for i, argv in enumerate({commands!r}):\n"
        f"    out = {str(tmp_path)!r} + f'/r{{i}}.txt'\n"
        f"    assert cli.main(argv + ['--model', {EXAMPLE_MODEL!r}, '--out', out]) == 0\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.special') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=pythonpath)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r0.txt", "r1.txt", "r2.txt"]


@pytest.mark.parametrize("argv, want", [
    (["beta", "--n", "3", "--r1", "0.3", "--eps", "0.3"],
     ["beta_min = 0.43612058998199416 [1]", "best_encoder = 00001111 [1]"]),
    (["beta", "--n", "4", "--eps", "0.3"],
     ["beta = 0.2004662658944419 [1]"]),
])
def test_cli_beta_on_example_model_is_pinned(tmp_path, argv, want):
    # printed strings recorded from the one-encoder-at-a-time implementation
    out = tmp_path / "beta.txt"
    assert main(argv + ["--model", EXAMPLE_MODEL, "--out", str(out)]) == 0
    lines = _read(out).splitlines()
    for line in want:
        assert line in lines


@pytest.mark.parametrize("argv, want", [
    (["theta", "--n", "2", "--r1", "0"], "theta_lower = 0.0 [nats]"),
    (["theta", "--n", "3", "--r1", "0.3", "--bits"], "theta_lower = 0.0 [bits]"),
])
def test_cli_theta_prints_no_negative_divergence(tmp_path, argv, want):
    # one message: the divergence of the average states is 0, and its
    # rounding noise (-3.3e-16 and -3.2e-16 here) must not print below 0
    out = tmp_path / "theta.txt"
    assert main(argv + ["--model", EXAMPLE_MODEL, "--out", str(out)]) == 0
    assert want in _read(out).splitlines()


_ENTROPY_REPORT = """cqbounds report
command = entropy
flags = bits=false model={model} out={out}
units = nats
H_X = 0.6931471805599453 [nats]
S_avg_output = 0.6172725409646116 [nats]
S_joint = 1.1049528800834318 [nats]
I_XY = 0.2054668414411251 [nats]
H_Y_given_X = 0.4118056995234865 [nats]
eta = 2.0 [1]
gamma = 1.8716237783260865 [1]
D_joint_vs_alt = 0.20546684144112515 [nats]
"""


def test_cli_parser_is_built_once_and_survives_argparse_errors(tmp_path, capsys):
    # the parser is built on the first call and reused by every later one;
    # calls that argparse rejects (exit 2) leave it fit for a valid call,
    # whose report keeps the bytes recorded with a parser built per call
    out = tmp_path / "entropy.txt"
    for bad in (["entropy", "--out", str(out)], [],
                ["beta", "--model", EXAMPLE_MODEL, "--n", "three", "--eps", "0.3"],
                ["entropy", "--model", EXAMPLE_MODEL, "--bits", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    assert "usage: cqbounds" in capsys.readouterr().err
    assert cli._build_parser() is cli._build_parser()
    assert main(["entropy", "--model", EXAMPLE_MODEL, "--out", str(out)]) == 0
    assert _read(out) == _ENTROPY_REPORT.format(model=EXAMPLE_MODEL, out=out)


def test_cli_beta_diagonalizes_no_matrix_beyond_one_block(tmp_path, monkeypatch):
    # the n-letter states are block diagonal in x^n: every spectral call of
    # beta --n 4 stays within one d_y^n = 16 block, none sees the 256 x 256
    # joint states
    dims = []

    def watch(fn):
        def wrapped(a, *args, **kwargs):
            dims.append(np.shape(a)[-1])
            return fn(a, *args, **kwargs)
        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, watch(getattr(np.linalg, name)))
    monkeypatch.setattr(scipy.linalg, "eig", watch(scipy.linalg.eig))
    out = tmp_path / "beta.txt"
    assert main(["beta", "--n", "4", "--eps", "0.3", "--model", EXAMPLE_MODEL,
                 "--out", str(out)]) == 0
    assert dims and max(dims) == 16


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cli_beta_without_alt_states_tests_against_independence(tmp_path, n):
    # two equal states: the source is its own independence alternative, so the
    # two hypotheses coincide and the best test has beta = 1 - eps
    s = random_density(2, 84, min_eig_floor=0.02)
    path = tmp_path / "equal.json"
    save_model(path, CQSource(["0", "1"], [0.5, 0.5], [s, s]))
    out = tmp_path / "beta.txt"
    assert main(["beta", "--n", str(n), "--eps", "0.3", "--model", str(path),
                 "--out", str(out)]) == 0
    line = next(row for row in _read(out).splitlines() if row.startswith("beta = "))
    assert abs(float(line.split()[2]) - 0.7) < 1e-9


def test_csv_rows_keep_their_bytes_without_per_cell_formatting(tmp_path):
    import csv

    rows = [
        [0, 7, "a,b", 0.1, -0.0, math.nan, math.inf, -math.inf, 10**30, 1e-300],
        [1, True, False, np.float64(0.1), np.float64(-0.0), np.int64(-3), np.bool_(True), 2.5],
        (2, "x", np.nan, 3, 1.0 / 3.0, np.float64(math.inf), 12, 0.0),
    ]
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), ["c0", "c1"], rows)
    # the old writer: every cell through _fmt
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["c0", "c1"])
        for row in rows:
            writer.writerow([cli._fmt(v) for v in row])
    assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert path.read_text().splitlines()[2].startswith("1,true,false,0.1,-0.0,-3,true,2.5")
