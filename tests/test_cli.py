import json
import math

import pytest

from cqbounds import CQSource, ValidationError, random_density
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
])
def test_cli_rejects_non_finite_weights_and_rates(model_path, tmp_path, argv):
    out = tmp_path / "r.txt"
    assert main(argv + ["--model", model_path, "--out", str(out)]) == 2
    assert not out.exists()  # no report, so no row reads nan
