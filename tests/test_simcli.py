import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from flmrac import simcli
from flmrac.plantmodel import Modulation, UncertaintyTruth, aggregate_true_weights
from flmrac.simcli import (ConfigError, bundled_scenario_path, canonical_text,
                           dict_to_scenario, list_bundled, load_config,
                           read_csv_columns, serialize_scenario,
                           trajectory_header, write_trajectory_csv)
from flmrac.simulator import Trajectory, run


def short_noisy_config(tmp_path, name="short", seed=20131007, t_final=3.0):
    scn, _ = load_config("wingrock_proposed")
    scn = dataclasses.replace(
        scn, name=name, t_final=t_final,
        noise=dataclasses.replace(scn.noise, start_time=0.5, seed=seed))
    path = tmp_path / f"{name}.cfg"
    path.write_text(serialize_scenario(scn))
    return path


class TestConfigParsing:
    def test_bundled_scenarios_present(self):
        names = list_bundled()
        for expected in ("wingrock_standard", "wingrock_proposed",
                         "wingrock_kappa_only", "wingrock_high_gain"):
            assert expected in names

    def test_all_bundled_parse_and_roundtrip(self):
        for name in list_bundled():
            scn, raw = load_config(name)
            assert serialize_scenario(scn) == canonical_text(raw)

    def test_bundled_resolution_by_name(self):
        assert bundled_scenario_path("wingrock_proposed") is not None
        assert bundled_scenario_path("missing_thing") is None

    def test_missing_gamma_names_field(self):
        _, raw = load_config("wingrock_proposed")
        del raw["controller"]["gamma"]
        with pytest.raises(ConfigError) as err:
            dict_to_scenario(raw)
        assert err.value.path == "controller.gamma"

    def test_bad_matrix_length_names_field(self):
        _, raw = load_config("wingrock_proposed")
        raw["controller"]["K"]["data"] = [1.0, 2.0]
        with pytest.raises(ConfigError) as err:
            dict_to_scenario(raw)
        assert err.value.path == "controller.K.data"

    def test_non_hurwitz_gain_rejected(self):
        _, raw = load_config("wingrock_proposed")
        raw["controller"]["K"]["data"] = [0.0, 0.0, 0.0]
        with pytest.raises(ConfigError, match="Hurwitz"):
            dict_to_scenario(raw)

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    def test_understated_truth_bound_rejected(self):
        _, raw = load_config("wingrock_proposed")
        raw["plant"]["truth"]["w_p_max"] = 1.0  # actual ~12.3
        with pytest.raises(ConfigError) as err:
            dict_to_scenario(raw)
        assert err.value.path == "plant.truth"


class TestTrajectoryCsv:
    def test_header_layout(self):
        header = trajectory_header(n=3, m=1, s=6, n_c=1)
        assert header[0] == "t"
        assert header[1:4] == ["x_1", "x_2", "x_3"]
        assert "What_9_1" in header
        assert header[-1] == "c_1"

    def test_roundtrip_exact(self, tmp_path):
        scn, _ = load_config("wingrock_proposed")
        scn = dataclasses.replace(scn, t_final=0.5)
        traj = run(scn)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        cols = read_csv_columns(path)
        assert np.array_equal(cols["t"], traj.t)
        assert np.array_equal(cols["x_1"], traj.x[:, 0])
        assert np.array_equal(cols["What_9_1"], traj.W_hat[:, 8, 0])
        assert np.array_equal(cols["c_1"], traj.c[:, 0])


def _rowwise_csv(traj) -> bytes:
    """The trajectory CSV written one value at a time, as the reference."""
    n, m, n_c = traj.x.shape[1], traj.u.shape[1], traj.c.shape[1]
    header = trajectory_header(n, m, traj.W_hat.shape[1] - n, n_c)
    lines = [",".join(header)]
    for i in range(len(traj)):
        row = [traj.t[i], *traj.x[i], *traj.x_r[i], *traj.x_ri[i], *traj.e[i],
               *traj.e_L[i], *traj.e_H[i], *traj.u[i], *traj.W_hat[i].ravel(), *traj.c[i]]
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return ("\n".join(lines) + "\n").encode()


def _synthetic_trajectory(rng, N, n, m, s, n_c) -> Trajectory:
    def block(*shape):
        # Mixed magnitudes, exact zeros of both signs.
        vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        vals.flat[::7] = -0.0
        vals.flat[3::11] = 0.0
        return vals

    x, x_r, e_L = block(N, n), block(N, n), block(N, n)
    return Trajectory(t=np.linspace(0.0, 1.0, N), x=x, x_r=x_r, x_ri=block(N, n),
                      e=x - x_r, e_L=e_L, e_H=x - x_r - e_L, u=block(N, m),
                      W_hat=block(N, s + n, m), c=block(N, n_c))


class TestBulkWriters:
    @pytest.mark.parametrize("m, n_c", [(2, 0), (1, 1), (2, 2)])
    def test_csv_bytes_match_rowwise_format(self, tmp_path, m, n_c):
        traj = _synthetic_trajectory(np.random.default_rng(m + 10 * n_c), 37, 3, m, 2, n_c)
        assert np.signbit(traj.x[0, 0]) and traj.x[0, 0] == 0.0
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        assert path.read_bytes() == _rowwise_csv(traj)

    def test_csv_bytes_match_rowwise_format_on_a_run(self, tmp_path):
        scn, _ = load_config("wingrock_proposed")
        traj = run(dataclasses.replace(scn, t_final=0.2))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        assert path.read_bytes() == _rowwise_csv(traj)

    @pytest.mark.parametrize("mods", [
        (),
        (Modulation(row=1, col=0, kind="step", start=3.0),),
        (Modulation(row=0, col=0, kind="sin", start=45.0),),
        (Modulation(row=0, col=1, kind="sin", start=0.0),
         Modulation(row=0, col=1, kind="step", start=2.5),
         Modulation(row=2, col=0, kind="sin", start=7.0)),
    ])
    def test_truth_norms_match_per_sample_loop(self, mods):
        rng = np.random.default_rng(len(mods))
        m = 2 if any(mod.col == 1 for mod in mods) else 1
        truth = UncertaintyTruth(W_p_base=rng.standard_normal((6, m)), modulations=mods,
                                 w_p_max=10.0, w_p_dot_max=0.5)
        lam = np.linspace(0.7, 1.3, m)
        K = rng.standard_normal((m, 3))
        ts = np.linspace(0.0, 12.5, 2001)
        per_sample = [np.linalg.norm(aggregate_true_weights(truth, lam, K, t=float(t)))
                      for t in ts]
        assert np.array_equal(simcli._truth_norms(truth, lam, K, ts), per_sample)
        # Only the fields the budget reads: truth, Lambda, K and the horizon.
        scn = SimpleNamespace(t_final=12.5, plant=SimpleNamespace(truth=truth, Lambda=lam),
                              controller=SimpleNamespace(K=K))
        assert simcli._truth_norm_budget(scn) == (max(per_sample), float(np.max(1.0 / lam)) * 0.5)


class TestCmdRun:
    def test_writes_all_outputs(self, tmp_path):
        cfg = short_noisy_config(tmp_path)
        out = tmp_path / "out"
        assert simcli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "short.csv").exists()
        bounds = json.loads((out / "short_bounds.json").read_text())
        assert {"kind", "bound_value", "observed", "satisfied"} <= set(bounds)
        manifest = json.loads((out / "short_manifest.json").read_text())
        assert manifest["seed"] == 20131007
        assert len(manifest["scenario_hash"]) == 64
        assert manifest["versions"]["flmrac"]

    def test_byte_determinism(self, tmp_path):
        cfg = short_noisy_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert simcli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert simcli.main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "short.csv").read_bytes() == (out2 / "short.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = short_noisy_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        simcli.main(["run", "--config", str(cfg), "--out", str(out1)])
        simcli.main(["run", "--config", str(cfg), "--out", str(out2),
                     "--seed-override", "7"])
        assert (out1 / "short.csv").read_bytes() != (out2 / "short.csv").read_bytes()
        manifest = json.loads((out2 / "short_manifest.json").read_text())
        assert manifest["overrides"] == {"seed": 7}

    def test_validation_exit_code(self, tmp_path):
        _, raw = load_config("wingrock_proposed")
        del raw["controller"]["gamma"]
        bad = tmp_path / "bad.cfg"
        bad.write_text(json.dumps(raw))
        assert simcli.main(["run", "--config", str(bad),
                            "--out", str(tmp_path / "o")]) == 2

    def test_divergence_exit_code(self, tmp_path, capsys):
        # kappa h stays far outside the RK4 stability region even after all
        # three step halvings, so the retries exhaust and the run exits 3
        _, raw = load_config("wingrock_proposed")
        raw["name"] = "stiff"
        raw["controller"]["kappa"] = 5e4
        raw["noise"]["enabled"] = False
        raw["t_final"] = 5.0
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text(json.dumps(raw))
        assert simcli.main(["run", "--config", str(cfg),
                            "--out", str(tmp_path / "o")]) == 3
        # Each announced retry is made: none is announced after the last one.
        assert capsys.readouterr().err.count("retrying") == simcli.MAX_STEP_HALVINGS


class TestCmdCompare:
    def test_identical_configs_give_identical_rows(self, tmp_path, capsys):
        cfg = short_noisy_config(tmp_path, t_final=2.0)
        out = tmp_path / "cmp"
        code = simcli.main(["compare", str(cfg), str(cfg), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "compare_report.json").read_text())
        a, b = report["runs"]
        assert a == b

    def test_rows_follow_config_order(self, tmp_path):
        paths = [short_noisy_config(tmp_path, name=name, t_final=1.0)
                 for name in ("b", "a", "c")]
        out = tmp_path / "cmp"
        assert simcli.main(["compare", *map(str, paths), "--out", str(out)]) == 0
        report = json.loads((out / "compare_report.json").read_text())
        assert [r["name"] for r in report["runs"]] == ["b", "a", "c"]

    def test_mismatched_plants_rejected(self, tmp_path):
        cfg1 = short_noisy_config(tmp_path, name="one")
        _, raw = load_config("wingrock_proposed")
        raw["name"] = "two"
        raw["plant"]["Lambda"] = [0.5]
        raw["t_final"] = 2.0
        cfg2 = tmp_path / "two.cfg"
        cfg2.write_text(json.dumps(raw))
        assert simcli.main(["compare", str(cfg1), str(cfg2),
                            "--out", str(tmp_path / "cmp")]) == 2


class TestGainWindowWarning:
    def test_eta_above_kappa_warns(self, tmp_path, capsys):
        _, raw = load_config("wingrock_proposed")
        raw["name"] = "inverted"
        raw["controller"]["kappa"] = 5.0
        raw["controller"]["eta"] = 100.0
        raw["t_final"] = 1.0
        cfg = tmp_path / "inverted.cfg"
        cfg.write_text(json.dumps(raw))
        assert simcli.main(["run", "--config", str(cfg),
                            "--out", str(tmp_path / "o")]) == 0
        assert "eta" in capsys.readouterr().err

    def test_bundled_proposed_does_not_warn(self, tmp_path, capsys):
        cfg = short_noisy_config(tmp_path, t_final=1.0)
        simcli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert "warning" not in capsys.readouterr().err


class TestCmdBode:
    def test_six_design_cases_emit_csv(self, tmp_path):
        cases = [(100, 0, 0), (100, 5, 0), (100, 50, 0), (100, 50, 1),
                 (100, 50, 10), (1000, 50, 0)]
        out = tmp_path / "bode"
        for g, k, e in cases:
            code = simcli.main(["bode", "--gamma", str(g), "--kappa", str(k),
                                "--eta", str(e), "--points", "50",
                                "--out", str(out)])
            assert code == 0
        csvs = sorted(out.glob("bode_*.csv"))
        assert len(csvs) == 6

    def test_two_point_grid_honors_endpoints(self, tmp_path):
        out = tmp_path / "bode"
        code = simcli.main(["bode", "--gamma", "100", "--kappa", "50",
                            "--eta", "10", "--alpha", "1",
                            "--omega-min", "0.5", "--omega-max", "200",
                            "--points", "2", "--out", str(out)])
        assert code == 0
        cols = read_csv_columns(out / "bode_g100_k50_e10.csv")
        assert cols["omega"].tolist() == [0.5, 200.0]

    def test_margin_report_written(self, tmp_path):
        out = tmp_path / "bode"
        simcli.main(["bode", "--gamma", "100", "--kappa", "50", "--eta", "10",
                     "--out", str(out)])
        rep = json.loads((out / "bode_g100_k50_e10_margins.json").read_text())
        assert rep["delay_margin_s"] > 0
        assert rep["phase_margin_deg"] > 0

    def test_no_crossover_reports_none(self, tmp_path):
        out = tmp_path / "bode"
        code = simcli.main(["bode", "--gamma", "1e-12", "--kappa", "0",
                            "--eta", "0", "--out", str(out)])
        assert code == 0
        rep = json.loads((out / "bode_g1e-12_k0_e0_margins.json").read_text())
        assert rep["delay_margin_s"] is None


class TestCmdPlot:
    def test_empty_selection_rejected(self, tmp_path):
        cfg = short_noisy_config(tmp_path, t_final=2.0)
        out = tmp_path / "o"
        simcli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert simcli.main(["plot", "--csv", str(out / "short.csv"),
                            "--out", str(tmp_path / "p.svg"), "--columns", ""]) == 2

    def test_unknown_column_rejected(self, tmp_path):
        cfg = short_noisy_config(tmp_path, t_final=2.0)
        out = tmp_path / "o"
        simcli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert simcli.main(["plot", "--csv", str(out / "short.csv"),
                            "--out", str(tmp_path / "p.svg"),
                            "--columns", "x_1,bogus"]) == 2

    def test_timeseries_svg_with_labels(self, tmp_path):
        cfg = short_noisy_config(tmp_path, t_final=2.0)
        out = tmp_path / "o"
        simcli.main(["run", "--config", str(cfg), "--out", str(out)])
        svg = tmp_path / "roll.svg"
        code = simcli.main(["plot", "--csv", str(out / "short.csv"),
                            "--out", str(svg), "--columns", "x_1,c_1"])
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert ">x_1<" in text and ">c_1<" in text

    def test_bode_svg_dual_panel(self, tmp_path):
        out = tmp_path / "bode"
        simcli.main(["bode", "--gamma", "100", "--kappa", "50", "--eta", "10",
                     "--points", "50", "--out", str(out)])
        svg = tmp_path / "bode.svg"
        code = simcli.main(["plot", "--csv", str(out / "bode_g100_k50_e10.csv"),
                            "--out", str(svg), "--bode"])
        assert code == 0
        text = svg.read_text()
        assert text.count("<polyline") == 2
        assert "magnitude [dB]" in text and "phase [deg]" in text
