import json

import numpy as np
import pytest

import morreylab
from morreylab import cli, conditions, operators, sparse
from morreylab.cli import (
    SWEEP_HEADER,
    ConfigError,
    load_config,
    main,
    run,
    run_sweep_power,
    sweep_power_levels,
)
from morreylab.grid import Grid, function_from_spec
from morreylab.weights import power_weight


BASE = {"experiment": "universal", "grid": {"n": 1, "L": 5}, "seed": 42,
        "options": {"instances": 6}}


def test_load_config_validates():
    cfg = load_config(dict(BASE))
    assert cfg.grid.depth == 5 and cfg.seed == 42
    with pytest.raises(ConfigError, match=r"\$\.experiment"):
        load_config({**BASE, "experiment": "nope"})
    with pytest.raises(ConfigError, match=r"\$\.grid"):
        load_config({"experiment": "universal", "grid": {"n": 1}, "seed": 1})
    with pytest.raises(ConfigError, match=r"\$\.seed"):
        load_config({"experiment": "universal", "grid": {"n": 1, "L": 4}})
    with pytest.raises(ConfigError, match=r"\$\.exponents"):
        load_config({**BASE, "exponents": {"p": 4.0, "p0": 2.0}})


def test_overrides_win():
    cfg = load_config(dict(BASE), {"seed": 7, "fidelity": "dyadic"})
    assert cfg.seed == 7 and cfg.fidelity == "dyadic"


def test_universal_runs_green(tmp_path):
    cfg = load_config({**BASE, "out": str(tmp_path)})
    assert run(cfg) == 0
    assert (tmp_path / "universal.csv").exists()
    summary = json.loads((tmp_path / "universal_summary.json").read_text())
    assert summary["failures"] == 0


def test_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        run(load_config({**BASE, "out": str(out)}))
    assert (out1 / "universal.csv").read_bytes() == (out2 / "universal.csv").read_bytes()
    assert (out1 / "universal_summary.json").read_bytes() == \
        (out2 / "universal_summary.json").read_bytes()


def test_sparse_fuzz_runs_green(tmp_path):
    cfg = load_config({"experiment": "sparse-fuzz", "grid": {"n": 1, "L": 6},
                       "seed": 3, "out": str(tmp_path), "options": {"instances": 8}})
    assert run(cfg) == 0
    rows = (tmp_path / "sparse-fuzz.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 16  # header + two rows per instance


def test_sparse_fuzz_makes_no_whole_grid_operator_call(tmp_path, monkeypatch):
    # sparse-fuzz asserts only the local chain, so it needs neither M_alpha f
    # nor I_alpha f on the whole grid
    def refuse(*args, **kwargs):
        raise AssertionError("whole-grid operator called")

    for module in (morreylab, cli, conditions, operators, sparse):
        for name in ("fractional_maximal", "fractional_integral"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for n, depth in ((1, 8), (2, 4)):
        cfg = tmp_path / f"fuzz{n}.json"
        cfg.write_text(json.dumps({"grid": {"n": n, "L": depth}, "seed": 5,
                                   "options": {"instances": 4}}))
        assert main(["sparse-fuzz", "--config", str(cfg),
                     "--out", str(tmp_path / f"r{n}")]) == 0


@pytest.mark.parametrize("n, depth", [(1, 13), (2, 7)])
def test_sparse_fuzz_past_dense_riesz_caps(tmp_path, n, depth):
    # the dense Riesz sum stops at 1D depth 12 and 2D depth 6; sparse-fuzz
    # does not reach it
    cfg = load_config({"experiment": "sparse-fuzz", "grid": {"n": n, "L": depth},
                       "seed": 17, "out": str(tmp_path), "options": {"instances": 3}})
    assert run(cfg) == 0


def test_norms_experiment(tmp_path):
    cfg = load_config({"experiment": "norms", "grid": {"n": 1, "L": 4}, "seed": 0,
                       "out": str(tmp_path),
                       "options": {"functions": [{"kind": "constant", "value": 1.0}],
                                   "weights": [{"kind": "power", "rho": -0.25}]}})
    assert run(cfg) == 0
    text = (tmp_path / "norms.csv").read_text()
    assert "weighted_morrey" in text and "dyadic_weighted_morrey" in text


def test_norms_experiment_condition_rows(tmp_path):
    cfg = load_config({"experiment": "norms", "grid": {"n": 1, "L": 6}, "seed": 0,
                       "out": str(tmp_path),
                       "exponents": {"p": 2.0, "p0": 4.0, "alpha": 0.125},
                       "options": {"weights": [{"kind": "constant", "value": 1.0}]}})
    assert run(cfg) == 0
    text = (tmp_path / "norms.csv").read_text()
    assert "balance_upper_sup" in text
    assert "doubling_kappa" in text
    assert "attainment_worst" in text


def test_counterexample_small(tmp_path):
    cfg = load_config({"experiment": "counterexample", "grid": {"n": 1, "L": 8},
                       "seed": 0, "out": str(tmp_path),
                       "exponents": {"p": 1.1, "p0": 1.2, "alpha": 0.75},
                       "options": {"m_values": [4, 16, 64], "slope_tol": 0.2}})
    failures = run(cfg)
    summary = json.loads((tmp_path / "counterexample_summary.json").read_text())
    assert "slope" in summary
    assert failures == summary["failures"] == 0


def test_sweep_power_small(tmp_path):
    # deep-inadmissible range: agreement is scale-robust even at small depth
    # (the flat-weight side needs depth >= 9 for its doubling factor to fit)
    cfg = load_config({
        "experiment": "sweep-power", "grid": {"n": 1, "L": 8}, "seed": 1,
        "out": str(tmp_path),
        "exponents": {"p": 2.0, "p0": 4.0, "alpha": 0.125},
        "options": {"rho_min": -0.5, "rho_max": -0.3125, "rho_step": 0.0625,
                    "levels": [4, 6, 8], "with_operators": False},
    })
    failures = run(cfg)
    assert failures == 0
    rows = (tmp_path / "sweep-power.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 3


# Rows of the sweep below from the implementation that rebuilt the power
# blocks, the operator corpora and the doubling norm tables for every rho;
# building them once must not change a bit.  rho straddles the lower boundary
# -1/8, and the doubling kappa is found at 1/16 only.
PINNED_SWEEP_ROWS = [
    (-0.25, False, False, 'indeterminate',
     '1.40600508894|1.67804520986|1.99647830863', 'none',
     'stable', 'stable', True, True, False, True),
    (-0.1875, False, False, 'stable',
     '1.19163924977|1.30285251372|1.421332054', 'none',
     'stable', 'stable', False, True, True, True),
    (-0.125, True, False, 'stable',
     '1.04746015365|1.0562246366|1.06006845139', 'none',
     'stable', 'stable', True, True, False, True),
    (-0.0625, True, True, 'stable',
     '1.01090940027|1.01241826685|1.01288632417', 'none',
     'stable', 'stable', True, False, True, True),
    (0.0, True, True, 'stable',
     '1|1|1', 'none',
     'stable', 'stable', True, False, False, False),
    (0.0625, True, True, 'stable',
     '1.00957911458|1.01138504403|1.01161555106', 215.2694823049509,
     'stable', 'stable', True, True, False, True),
]


def test_sweep_power_rows_pinned():
    cfg = load_config({
        "experiment": "sweep-power", "grid": {"n": 1, "L": 8}, "seed": 2718,
        "exponents": {"p": 2.0, "p0": 4.0, "alpha": 0.125},
        "options": {"rho_min": -0.25, "rho_max": 0.125, "rho_step": 0.0625,
                    "levels": [4, 6, 8], "op_levels": [6, 8]},
    })
    _, rows, summary, failures = run_sweep_power(cfg)
    assert [tuple(row[col] for col in SWEEP_HEADER) for row in rows] == PINNED_SWEEP_ROWS
    assert failures == summary["failures"] == 1


def test_sweep_power_cli_defaults(tmp_path, monkeypatch):
    # resolve the defaults of `morreylab sweep-power` without running the sweep
    seen = []

    def capture(cfg):
        seen.append(cfg)
        return SWEEP_HEADER, [], {}, 0

    monkeypatch.setitem(cli.RUNNERS, "sweep-power", (SWEEP_HEADER, capture))
    assert main(["sweep-power", "--out", str(tmp_path)]) == 0
    assert sweep_power_levels(seen[0]) == ([8, 10, 12], [8, 10])
    with pytest.raises(ConfigError, match=r"\$\.options\.levels"):
        sweep_power_levels(load_config({"experiment": "sweep-power",
                                        "grid": {"n": 1, "L": 1}, "seed": 1}))


def test_list_center_is_a_tuple():
    g = Grid(2, 4)
    spec = {"kind": "power", "rho": 0.3, "center": [0.5, 0.5]}
    assert np.array_equal(function_from_spec(g, spec).values,
                          power_weight(g, 0.3, center=(0.5, 0.5)).values)
    cfg = load_config({"experiment": "sweep-power", "grid": {"n": 2, "L": 4}, "seed": 1,
                       "options": {"center": [0.25, 0.5]}})
    assert cfg.options["center"] == (0.25, 0.5)


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["universal", "--config", str(bad)]) == 2
    cfg = tmp_path / "ok.json"
    cfg.write_text(json.dumps({**BASE, "options": {"instances": 2}}))
    assert main(["universal", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    out = capsys.readouterr().out
    assert "universal" in out
    # op level 13 passes config validation but the dense 1D Riesz sum stops
    # at depth 12: a run error gets its own code and a one-line message
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps({"grid": {"n": 1, "L": 6},
                                "options": {"levels": [4, 6], "op_levels": [4, 13]}}))
    assert main(["sweep-power", "--config", str(deep), "--out", str(tmp_path / "d")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and err.count("\n") == 1


def test_run_subcommand_dispatches_from_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**BASE, "options": {"instances": 2}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    assert (tmp_path / "r" / "universal.csv").exists()
    missing = tmp_path / "m.json"
    missing.write_text(json.dumps({"grid": {"n": 1, "L": 4}, "seed": 1}))
    assert main(["run", "--config", str(missing)]) == 2


def test_main_level_and_seed_flags(tmp_path):
    cfg = tmp_path / "ok.json"
    cfg.write_text(json.dumps({"options": {"instances": 2}}))
    code = main(["universal", "--config", str(cfg), "--level", "4", "--seed", "9",
                 "--out", str(tmp_path / "r")])
    assert code == 0
    summary = json.loads((tmp_path / "r" / "universal_summary.json").read_text())
    assert summary["seed"] == 9
