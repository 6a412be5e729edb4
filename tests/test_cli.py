"""Experiment CLI: reports, exit codes, determinism, configuration."""

import json

import pytest

from emergent_irq.cli import main, render
from emergent_irq.core import identity_names

HEADER = "experiment,carrier,identity,k,samples,max_residual,rate,passed"


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_axioms_euclidean_report(capsys):
    rc, out, _ = run(capsys, ["run", "--carrier", "euclidean",
                              "--experiment", "axioms"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 14
    names = [line.split(",")[2] for line in lines[1:]]
    assert names == sorted(["P1", "P2", "3.4a", "3.4b", "3.4c", "3.4d",
                            "3.4e", "3.4f", "3.4g", "3.5h", "3.5i", "3.5j",
                            "3.5k"])
    for line in lines[1:]:
        assert line.startswith("axioms,euclidean1,")
        assert line.endswith(",true")
        assert line.split(",")[4] == "250"


def test_converge_euclidean_rows(capsys):
    rc, out, _ = run(capsys, ["run", "--carrier", "euclidean",
                              "--experiment", "converge"])
    assert rc == 0
    lines = out.strip().split("\n")
    names = [line.split(",")[2] for line in lines[1:]]
    # Three limit rows plus the three closed-form oracle rows.
    assert names == ["4.6-dif", "4.6-inv", "4.6-sum",
                     "5.1-dif", "5.1-inv", "5.1-sum"]
    for line in lines[1:]:
        assert line.endswith(",true")
    # Limit rows carry the estimated contraction rate.
    rates = [line.split(",")[6] for line in lines[1:]]
    assert rates[:3] == ["", "", ""]
    assert all(0.45 <= float(r) <= 0.55 for r in rates[3:])


def test_divide_heisenberg_rows(capsys):
    rc, out, _ = run(capsys, ["run", "--carrier", "heisenberg",
                              "--experiment", "divide"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 11
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[2], r[3]) for r in rows] == [
        ("6.3", "-1"), ("6.3", "1"), ("6.3", "2"), ("6.3", "3"),
        ("6.3-limit", "30"),
        ("6.3-loop", "-1"), ("6.3-loop", "1"), ("6.3-loop", "2"),
        ("6.3-loop", "3"), ("6.3-prefactor", "30")]
    assert all(r[7] == "true" for r in rows)


def test_divide_dihedral_skips_even_levels(capsys):
    rc, out, _ = run(capsys, ["run", "--carrier", "dihedral",
                              "--experiment", "divide"])
    assert rc == 0
    lines = out.strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    # k = 2 has no right division on an involutive star; no limit or
    # prefactor rows on a non-uniform carrier.  Exact rows demand zero.
    assert [(r[2], r[3]) for r in rows] == [
        ("6.3", "-1"), ("6.3", "1"), ("6.3", "3"),
        ("6.3-loop", "-1"), ("6.3-loop", "1"), ("6.3-loop", "3")]
    assert all(r[5] == "0.0" and r[7] == "true" for r in rows)


@pytest.mark.parametrize("carrier,params,k", [
    ("euclidean", {"epsilon": 0.5}, "30"),
    ("euclidean", {"epsilon": 0.7}, "43"),
    ("euclidean", {"epsilon": 0.8}, "69"),
    ("euclidean", {"epsilon": 0.9}, "145"),
    ("heisenberg", {"epsilon": 0.5}, "30"),
    ("heisenberg", {"epsilon": 0.7}, "43"),
    ("heisenberg", {"epsilon": 0.8}, "69"),
    ("heisenberg", {"epsilon": 0.9}, "145"),
    # The perturbed plane contracts at eps + eta = 0.7.
    ("perturbed", {"epsilon": 0.6, "eta": 0.1}, "43"),
])
def test_prefactor_level_follows_epsilon(tmp_path, capsys, carrier, params,
                                         k):
    # b /_k a lies about eps^k d(a, b) from b, so at a fixed level 30 the
    # 6.3-prefactor row failed for eps >= 0.7; the level now grows with
    # eps and stays 30 at the default eps = 0.5.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(params))
    rc, out, _ = run(capsys, ["run", "--carrier", carrier, "--experiment",
                              "divide", "--config", str(cfg)])
    assert rc == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    limit_rows = [r for r in rows if r[2] in ("6.3-limit", "6.3-prefactor")]
    assert limit_rows[-1][2] == "6.3-prefactor"
    assert all(r[3] == k and r[7] == "true" for r in limit_rows)


# The rows of a perturbed symmetric run: its delta is odd, so its limit
# inverse is the isometry 2x - u, an oracle.
PERTURBED_SYMMETRIC = ["6.5", "6.6", "6.8", "6.8-iso", "6.8-oracle", "L1",
                       "L2", "L2-underline", "L3", "L4"]


def test_symmetric_row_sets(capsys):
    rc, out, _ = run(capsys, ["run", "--carrier", "perturbed",
                              "--experiment", "symmetric"])
    assert rc == 0
    lines = out.strip().split("\n")
    names = [line.split(",")[2] for line in lines[1:]]
    assert names == PERTURBED_SYMMETRIC
    assert all(line.endswith(",true") for line in lines[1:])

    rc, out, _ = run(capsys, ["run", "--carrier", "euclidean",
                              "--experiment", "symmetric"])
    assert rc == 0
    names = [line.split(",")[2] for line in out.strip().split("\n")[1:]]
    assert names == ["6.5", "6.6", "6.8", "6.8-iso", "6.8-oracle",
                     "L1", "L2", "L2-underline", "L3", "L4"]

    rc, out, _ = run(capsys, ["run", "--carrier", "dihedral",
                              "--experiment", "symmetric"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1] == "symmetric,dihedral5,6.5,,25,0.0,,true"


def test_reconstruct_rejects_perturbed(capsys):
    rc, out, _ = run(capsys, ["run", "--carrier", "perturbed",
                              "--experiment", "reconstruct"])
    assert rc == 1
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1] == ("reconstruct,perturbed,6.1,,200,"
                        "1.4259168609166206,,false")


# Every perturbed cell but symmetric (pinned in test_symmetric_row_sets) at
# the CLI defaults: exit code and each row's (identity, passed).  These rows
# all evaluate the carrier's inverse dilation.
PERTURBED_CELLS = {
    "axioms": (0, [(name, "true") for name in sorted(identity_names())]),
    "converge": (0, [("5.1-dif", "true"), ("5.1-inv", "true"),
                     ("5.1-sum", "true")]),
    "reconstruct": (1, [("6.1", "false")]),
    "derivative": (0, [("Tf-delta", "true"), ("Tf-id", "true"),
                       ("Tf-morphism", "true")]),
    "divide": (0, [("6.3", "true")] * 4 + [("6.3-loop", "true")] * 4
               + [("6.3-prefactor", "true")]),
}


@pytest.mark.parametrize("experiment", sorted(PERTURBED_CELLS))
def test_perturbed_cell_verdicts(capsys, experiment):
    rc_want, rows_want = PERTURBED_CELLS[experiment]
    rc, out, _ = run(capsys, ["run", "--carrier", "perturbed",
                              "--experiment", experiment])
    assert rc == rc_want
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [(r[2], r[7]) for r in rows] == rows_want


def test_reconstruct_heisenberg_passes(capsys):
    rc, out, _ = run(capsys, ["run", "--carrier", "heisenberg",
                              "--experiment", "reconstruct",
                              "--samples", "50"])
    assert rc == 0
    names = [line.split(",")[2] for line in out.strip().split("\n")[1:]]
    assert names == ["6.1", "6.1i", "6.1ii", "6.1iii", "6.2"]


def test_determinism_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["run", "--carrier", "heisenberg", "--experiment", "converge",
            "--seed", "7", "--samples", "50"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().decode().startswith(HEADER)


def test_json_format(capsys):
    rc, out, _ = run(capsys, ["run", "--carrier", "euclidean",
                              "--experiment", "axioms", "--format", "json",
                              "--samples", "20"])
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 13
    for row in rows:
        assert set(row) == {"experiment", "carrier", "identity", "k",
                            "samples", "max_residual", "rate", "passed"}
        assert row["passed"] is True
        assert row["samples"] == 20
        assert isinstance(row["max_residual"], float)


def test_render_json_maps_non_finite_to_null():
    row = {"experiment": "converge", "carrier": "c", "identity": "5.1-limit",
           "k": 200, "samples": 1, "max_residual": float("inf"),
           "rate": None, "passed": False}
    rows = json.loads(render([row], "json"))
    assert rows[0]["max_residual"] is None
    assert render([row], "csv").strip().split("\n")[1] == (
        "converge,c,5.1-limit,200,1,inf,,false")


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"carrier": "euclidean", "experiment": "axioms",
                               "samples": 10, "dim": 2}))
    rc, out, _ = run(capsys, ["run", "--config", str(cfg)])
    assert rc == 0
    assert out.strip().split("\n")[1].split(",")[1] == "euclidean2"
    assert out.strip().split("\n")[1].split(",")[4] == "10"
    # A flag beats the file.
    rc, out, _ = run(capsys, ["run", "--config", str(cfg),
                              "--samples", "15"])
    assert rc == 0
    assert out.strip().split("\n")[1].split(",")[4] == "15"


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    argv = ["run", "--carrier", "heisenberg", "--experiment", "converge",
            "--samples", "30"]
    monkeypatch.setenv("EMERGENT_IRQ_SEED", "9")
    rc, out_env, _ = run(capsys, argv)
    assert rc == 0
    monkeypatch.delenv("EMERGENT_IRQ_SEED")
    rc, out_flag, _ = run(capsys, argv + ["--seed", "9"])
    assert out_env == out_flag
    # An explicit flag beats the environment.
    monkeypatch.setenv("EMERGENT_IRQ_SEED", "3")
    rc, out_mix, _ = run(capsys, argv + ["--seed", "9"])
    assert out_mix == out_flag


def test_config_errors_exit_2(tmp_path, capsys):
    bad = [
        ["run", "--carrier", "euclidean", "--experiment", "warpdrive"],
        ["run", "--experiment", "axioms"],
        ["run", "--carrier", "euclidean"],
        ["run", "--carrier", "octonion", "--experiment", "axioms"],
        ["run", "--carrier", "dihedral", "--experiment", "converge"],
        ["run", "--carrier", "dihedral", "--experiment", "reconstruct"],
        ["run", "--carrier", "dihedral", "--experiment", "derivative"],
        ["run", "--carrier", "euclidean", "--experiment", "axioms",
         "--tol", "-1"],
        ["run", "--carrier", "euclidean", "--experiment", "axioms",
         "--samples", "0"],
        ["run", "--carrier", "euclidean", "--experiment", "axioms",
         "--max-k", "4"],
        ["run", "--carrier", "carnot", "--experiment", "axioms"],
    ]
    for argv in bad:
        rc, out, err = run(capsys, argv)
        assert rc == 2, argv
        assert err.startswith("error:"), argv
        assert out == ""

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    rc, _, err = run(capsys, ["run", "--config", str(broken)])
    assert rc == 2 and "not valid JSON" in err
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    rc, _, err = run(capsys, ["run", "--config", str(listy)])
    assert rc == 2 and "JSON object" in err
    rc, _, err = run(capsys, ["run", "--config", str(tmp_path / "none.json")])
    assert rc == 2 and "cannot read config" in err
    unknown_param = tmp_path / "param.json"
    unknown_param.write_text(json.dumps({"carrier": "euclidean",
                                         "experiment": "axioms",
                                         "warp": 9}))
    rc, _, err = run(capsys, ["run", "--config", str(unknown_param)])
    assert rc == 2 and "unknown parameter" in err


def test_bad_carrier_parameters_exit_2(tmp_path, capsys):
    # A carrier that cannot be built is a bad configuration, not a failed
    # row: a malformed algebra or a negative dim exits 2 with a diagnostic.
    for params in [{"carrier": "carnot", "algebra": '{"layers": 3}'},
                   {"carrier": "carnot", "algebra": '{"layers": ["x"]}'},
                   {"carrier": "carnot",
                    "algebra": '{"layers": [2, 1], "brackets": 3}'},
                   {"carrier": "euclidean", "dim": -2}]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "axioms", **params}))
        rc, out, err = run(capsys, ["run", "--config", str(cfg)])
        assert rc == 2 and err.startswith("error:") and out == "", params


def test_list_commands(capsys):
    rc, out, _ = run(capsys, ["list-carriers"])
    assert rc == 0
    assert "euclidean" in out and "dim=1" in out
    assert "carnot" in out and "algebra=<required>" in out
    rc, out, _ = run(capsys, ["list-experiments"])
    assert rc == 0
    for name in ("axioms", "converge", "reconstruct", "symmetric",
                 "derivative", "divide"):
        assert name in out


def identities(out):
    return [line.split(",")[2] for line in out.strip().split("\n")[1:]]


@pytest.mark.parametrize("experiment", ["converge", "reconstruct",
                                        "symmetric", "derivative", "divide"])
@pytest.mark.parametrize("carrier", ["euclidean", "heisenberg", "perturbed"])
def test_limit_failures_keep_their_rows(capsys, carrier, experiment):
    # At max_k 5 the limits cannot settle; every row that needs one fails
    # under its own name, and the other rows stay.  On the linear euclidean
    # carrier one Richardson step is exact, so the limits of the rows that
    # use only a limit's value settle by level 4 and every row passes.
    argv = ["run", "--carrier", carrier, "--experiment", experiment,
            "--samples", "20"]
    rc, out, err = run(capsys, argv + ["--max-k", "5"])
    if carrier == "euclidean" and experiment in ("reconstruct", "symmetric",
                                                 "derivative"):
        assert rc == 0, err
        assert all(line.endswith(",true")
                   for line in out.strip().split("\n")[1:])
    else:
        assert rc == 1, err
    assert identities(out) == identities(run(capsys, argv)[1])
    assert "5.1-limit" not in out


def test_failed_limit_rows_follow_the_failure_rule(capsys):
    rc, out, _ = run(capsys, ["run", "--carrier", "heisenberg",
                              "--experiment", "converge", "--samples", "20",
                              "--max-k", "5"])
    assert rc == 1
    rows = {r[2]: r for r in (line.split(",")
                              for line in out.strip().split("\n")[1:])}
    for op in ("sum", "dif", "inv"):
        limit, oracle = rows[f"5.1-{op}"], rows[f"4.6-{op}"]
        # Stop-level rows report max_k; the oracle fails at its limit's
        # last trail step.
        assert limit[3] == oracle[3] == "5"
        assert limit[5] == oracle[5] and float(limit[5]) > 0.0
        assert limit[7] == oracle[7] == "false"


def test_axioms_off_the_carrier_fail_every_identity(tmp_path, capsys):
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps({"radius": 10}))
    rc, out, _ = run(capsys, ["run", "--carrier", "hyperbolic",
                              "--experiment", "axioms", "--config", str(cfg)])
    assert rc == 1
    assert identities(out) == sorted(identity_names())
    assert all(line.endswith(",250,inf,,false")
               for line in out.strip().split("\n")[1:])


def test_perturbed_inverse_limits_settle_near_eps_plus_eta(tmp_path, capsys):
    # At eps = 0.3, eta = 0.25 a chain of Newton delta^-1 solves amplifies
    # rounding by about ((eps+eta)/(eps-eta))^k = 11^k.  The level inverse
    # takes none, so the Loos rows and 5.1-inv pass; an inverse through
    # delta^-k(s^-1) fails them at 2.1e-3 and 1.03.  The difference and
    # sum limits still need delta^-k and fail.
    cfg = tmp_path / "near.json"
    cfg.write_text(json.dumps({"epsilon": 0.3, "eta": 0.25}))
    argv = ["run", "--carrier", "perturbed", "--config", str(cfg),
            "--experiment"]
    rc, out, _ = run(capsys, argv + ["symmetric"])
    assert rc == 0
    assert identities(out) == PERTURBED_SYMMETRIC
    assert all(line.endswith(",true") for line in out.strip().split("\n")[1:])
    rc, out, _ = run(capsys, argv + ["converge"])
    assert rc == 1
    rows = {r[2]: r for r in (line.split(",")
                              for line in out.strip().split("\n")[1:])}
    assert rows["5.1-inv"][3] == "34" and rows["5.1-inv"][7] == "true"
    for op in ("dif", "sum"):
        assert rows[f"5.1-{op}"][7] == "false", rows[f"5.1-{op}"]


def test_failed_loos_rows_keep_the_involution_row(capsys):
    # At max_k 6 every Loos limit fails; the involution row needs none.
    rc, out, _ = run(capsys, ["run", "--carrier", "perturbed",
                              "--experiment", "symmetric", "--max-k", "6",
                              "--samples", "20"])
    assert rc == 1
    lines = out.strip().split("\n")[1:]
    assert identities(out) == PERTURBED_SYMMETRIC
    assert lines[0].startswith("symmetric,perturbed,6.5,,20,")
    assert lines[0].endswith(",true")
    assert all(line.endswith(",false") for line in lines[1:])
