import argparse
import dataclasses
import functools
import hashlib
import json
import math
import operator
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from flmrac import analysis, simcli
from flmrac.controllers import ControllerConfig
from flmrac.plantmodel import Modulation, UncertaintyTruth, aggregate_true_weights
from flmrac.simcli import (ConfigError, bundled_scenario_path, canonical_text,
                           dict_to_scenario, list_bundled, load_config,
                           read_csv_columns, serialize_scenario,
                           trajectory_header, write_trajectory_csv)
from flmrac.simulator import CommandSpec, NoiseSpec, ScenarioConfig, Trajectory, run


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
        assert list_bundled() == ["wingrock_high_gain", "wingrock_kappa_only",
                                  "wingrock_proposed", "wingrock_standard"]

    def test_all_bundled_parse_and_roundtrip(self):
        for name in list_bundled():
            scn, raw = load_config(name)
            assert serialize_scenario(scn) == canonical_text(raw)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_canonical_text_refuses_what_json_cannot_spell(self, value):
        # Standard JSON has no NaN or Infinity; json.dumps would write them by default.
        with pytest.raises(ValueError, match="JSON compliant"):
            canonical_text({"x": [1.0, value]})

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

    # Only a bare name, with no directory part and no suffix, names a bundled scenario.
    @pytest.mark.parametrize("arg", ["/nonexistent/dir/wingrock_standard.cfg",
                                     "wingrock_standard.json", "./wingrock_standard"])
    def test_missing_path_is_not_a_bundled_name(self, tmp_path, monkeypatch, capsys, arg):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError) as err:
            load_config(arg)
        assert str(err.value) == f"<file>: no such config file: {arg}"
        assert simcli.main(["run", "--config", arg, "--out", "o"]) == 2
        stderr = capsys.readouterr().err
        assert f"config error: <file>: no such config file: {arg}" in stderr
        assert "Traceback" not in stderr
        assert list(tmp_path.iterdir()) == []

    def test_directory_does_not_hide_a_bundled_name(self, tmp_path, monkeypatch):
        # `run --config wingrock_standard --out wingrock_standard` leaves a directory
        # of the bundled name in the working directory; a second run still reads
        # the bundled scenario.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "wingrock_standard").mkdir()
        scn, raw = load_config("wingrock_standard")
        assert raw == json.loads(bundled_scenario_path("wingrock_standard").read_text())
        assert scn.name == "wingrock_standard"

    def test_file_of_a_bundled_name_is_read(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _, raw = load_config("wingrock_standard")
        raw["name"] = "local"
        (tmp_path / "wingrock_standard").write_text(json.dumps(raw))
        assert load_config("wingrock_standard")[0].name == "local"

    @pytest.mark.parametrize("make", [lambda p: p.mkdir(), lambda p: p.write_bytes(b"\xff{}")],
                             ids=["directory", "not_utf8"])
    def test_unreadable_file_exits_2(self, tmp_path, capsys, make):
        cfg = tmp_path / "bad.cfg"
        make(cfg)
        assert simcli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        stderr = capsys.readouterr().err
        assert f"config error: <file>: cannot read {cfg}: " in stderr
        assert "Traceback" not in stderr
        assert not (tmp_path / "o").exists()

    def test_understated_truth_bound_rejected(self):
        # The true sup of ||W_p'||_F is 0.25; a sampled check once accepted 0.2495.
        _, raw = load_config("wingrock_proposed")
        raw["plant"]["truth"]["w_p_dot_max"] = 0.2495
        with pytest.raises(ConfigError, match="unknown field") as err:
            dict_to_scenario(raw)
        assert err.value.path == "plant.truth.w_p_dot_max"


def _matrix(rows, cols, data):
    return {"rows": rows, "cols": cols, "data": data}


BEYOND_GUARD = "an entry is beyond the divergence limit 1e+09"

# (edit of the bundled wingrock_proposed config, field path the error names[,
# the message that follows the path])
MALFORMED_FIELDS = {
    "noise_std_length": (lambda r: r["noise"].update(std=[1e-3, 1e-3]), "noise.std"),
    "x0_length": (lambda r: r.update(x0=[0.0, 0.0]), "x0"),
    "x_r0_length": (lambda r: r.update(x_r0=[0.0]), "x_r0"),
    "W_hat0_shape": (lambda r: r["controller"].update(W_hat0=_matrix(2, 1, [0.0, 0.0])),
                     "controller.W_hat0"),
    "noise_std_negative": (lambda r: r["noise"].update(std=[1e-3, -1e-3, 0.0]), "noise.std"),
    "basis_unknown": (lambda r: r["plant"]["basis"].__setitem__(5, "x1_squared"), "plant.basis",
                      "unknown basis feature 'x1_squared'"),
    "basis_component_zero": (lambda r: r["plant"]["basis"].__setitem__(5, "x0"), "plant.basis",
                             "unknown basis feature 'x0'"),
    "basis_component_beyond_plant": (
        lambda r: r["plant"]["basis"].__setitem__(5, "x3"), "plant",
        "basis feature 'x3' reads plant state 3, but the plant has 2"),
    "name_empty": (lambda r: r.update(name=""), "name"),
    "name_parent_dir": (lambda r: r.update(name="../escaped"), "name"),
    "name_dot_dot": (lambda r: r.update(name=".."), "name"),
    "name_backslash": (lambda r: r.update(name="sub\\escaped"), "name"),
    "modulation_kind": (lambda r: r["plant"]["truth"]["modulations"][0].update(kind="cos"),
                        "plant.truth.modulations[0]"),
    "modulation_start_nan": (
        lambda r: r["plant"]["truth"]["modulations"][0].update(start=float("nan")),
        "plant.truth.modulations[0].start"),
    # The truth's bounds follow from W_p and its modulations; a file cannot state them.
    "w_p_max_nan": (lambda r: r["plant"]["truth"].update(w_p_max=float("nan")),
                    "plant.truth.w_p_max", "unknown field"),
    "w_p_dot_max_infinite": (lambda r: r["plant"]["truth"].update(w_p_dot_max=float("inf")),
                             "plant.truth.w_p_dot_max", "unknown field"),
    "theta_max_negative": (lambda r: r["controller"]["projection"].update(theta_max=-1.0),
                           "controller.projection"),
    "noise_seed_negative": (lambda r: r["noise"].update(seed=-3), "noise.seed"),
    "gamma_nan": (lambda r: r["controller"].update(gamma=float("nan")), "controller.gamma"),
    "noise_std_nan": (lambda r: r["noise"].update(std=[float("nan"), 0.0, 0.0]), "noise.std"),
    "K_shape": (lambda r: r["controller"].update(K=_matrix(1, 2, [2.0, 2.0])), "controller.K"),
    "K_not_stabilizing": (lambda r: r["controller"].update(K=_matrix(1, 3, [0.0] * 3)),
                          "controller.K", "A - B K is not Hurwitz; fix the nominal gain K"),
    "h_infinite": (lambda r: r.update(h=float("inf")), "h"),
    "h_negative": (lambda r: r.update(h=-0.01), "h"),
    "h_beyond_horizon": (lambda r: r.update(h=200.0), "t_final"),
    "gamma_beyond_float": (lambda r: r["controller"].update(gamma=10**400), "controller.gamma"),
    # Noise is on where its std is: a file cannot switch it with a flag.
    "noise_enabled_declared": (lambda r: r["noise"].update(enabled=False), "noise.enabled",
                               "unknown field"),
    "gamma_boolean": (lambda r: r["controller"].update(gamma=True), "controller.gamma",
                      "expected a number, got True"),
    "command_sample_nan": (lambda r: r["command"].update(kind="custom", times=[0.0, 0.1],
                                                         values=[0.3, float("nan")]),
                           "command.values"),
    "command_times_not_increasing": (
        lambda r: r["command"].update(kind="custom", times=[2.0, 0.0, 1.0], values=[5.0, 7.0, 9.0]),
        "command", "custom command times must increase"),
    "t_final_not_multiple": (lambda r: r.update(t_final=0.2005), "t_final"),
    "unknown_key": (lambda r: r["controller"].update(kapa=r["controller"].pop("kappa")),
                    "controller.kapa", "unknown field"),
    "matrix_unknown_key": (lambda r: r["controller"]["K"].update(transpose=True),
                           "controller.K.transpose", "unknown field"),
    "unknown_modulation_key": (
        lambda r: r["plant"]["truth"]["modulations"][0].update(begin=1.0),
        "plant.truth.modulations[0].begin", "unknown field"),
    "name_not_string": (lambda r: r.update(name={"a": 1}), "name",
                        "expected a string, got {'a': 1}"),
    "command_kind_not_string": (lambda r: r["command"].update(kind=1), "command.kind",
                                "expected a string, got 1"),
    "basis_entry_not_string": (lambda r: r["plant"]["basis"].__setitem__(2, 2),
                               "plant.basis[2]", "expected a string, got 2"),
    "plant_missing": (lambda r: r.pop("plant"), "plant", "missing required field"),
    "plant_not_object": (lambda r: r.update(plant=[1.0]), "plant", "expected an object"),
    "matrix_without_data": (lambda r: r["controller"]["K"].pop("data"), "controller.K.data",
                            "missing required field"),
    "matrix_rows_string": (lambda r: r["plant"]["A_p"].update(rows="2"), "plant.A_p.rows",
                           "expected an integer, got '2'"),
    "basis_not_list": (lambda r: r["plant"].update(basis="bias"), "plant.basis",
                       "expected a list"),
    "modulations_not_list": (lambda r: r["plant"]["truth"].update(modulations={"row": 0}),
                             "plant.truth.modulations", "expected a list"),
    "unknown_root_key": (lambda r: r.update(horizon=1.0), "horizon", "unknown field"),
    # Start values beyond the divergence guard: 1e120 would overflow x1_cubed in the first
    # step, and 1e10 would pass that step and exit 3 at the guard's check after it.
    "x0_beyond_overflow": (lambda r: r.update(x0=[1e120, 0.0, 0.0]), "x0", BEYOND_GUARD),
    "x0_beyond_guard": (lambda r: r.update(x0=[1e10, 0.0, 0.0]), "x0", BEYOND_GUARD),
    "x_r0_beyond_guard": (lambda r: r.update(x_r0=[1e120, 0.0, 0.0]), "x_r0", BEYOND_GUARD),
    "W_hat0_beyond_guard": (
        lambda r: r["controller"].update(projection=None,
                                         W_hat0=_matrix(9, 1, [1e200] + [0.0] * 8)),
        "controller.W_hat0", BEYOND_GUARD),
    "noise_std_beyond_guard": (lambda r: r["noise"].update(std=[1e120, 0.0, 0.0]), "noise.std",
                               BEYOND_GUARD),
}


def _malformed_config(tmp_path, edit=lambda raw: None):
    """A short bundled config with noise from t = 0, after `edit`; written as
    JSON, which spells non-finite numbers as NaN and Infinity."""
    _, raw = load_config("wingrock_proposed")
    raw.update(name="malformed", t_final=0.2)
    raw["noise"]["start_time"] = 0.0
    edit(raw)
    path = tmp_path / "malformed.cfg"
    path.write_text(json.dumps(raw))
    return raw, path


#: Where each model dataclass with defaulted fields sits in a scenario file.
DEFAULTED_SECTIONS = {ScenarioConfig: (), ControllerConfig: ("controller",),
                      CommandSpec: ("command",), NoiseSpec: ("noise",),
                      UncertaintyTruth: ("plant", "truth"),
                      Modulation: ("plant", "truth", "modulations", 0)}
#: Edits of wingrock_proposed under which a key's default is a valid value.
DEFAULT_VALID_AFTER = {
    "period": lambda r: r["command"].update(kind="step"),
}


@pytest.mark.parametrize("path, field", [
    pytest.param(path, f, id=".".join(map(str, (*path, f.name))))
    for cls, path in DEFAULTED_SECTIONS.items() for f in dataclasses.fields(cls)
    if f.default is not dataclasses.MISSING])
def test_key_at_its_default_may_be_left_out(path, field):
    """A key written at the model's default loads as if it were left out."""
    _, raw = load_config("wingrock_proposed")
    DEFAULT_VALID_AFTER.get(field.name, lambda r: None)(raw)
    section = functools.reduce(operator.getitem, path, raw)
    section[field.name] = simcli._plain(field.default)
    written = serialize_scenario(dict_to_scenario(raw))
    del section[field.name]
    assert serialize_scenario(dict_to_scenario(raw)) == written


class TestConfigBoundary:
    """Every malformed field stops at load with its path and exit 2."""

    @pytest.mark.parametrize("case", MALFORMED_FIELDS)
    def test_malformed_field(self, tmp_path, capsys, case):
        edit, path, *message = MALFORMED_FIELDS[case]
        raw, cfg = _malformed_config(tmp_path, edit)
        with pytest.raises(ConfigError) as err:
            dict_to_scenario(raw)
        assert err.value.path == path
        assert simcli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        stderr = capsys.readouterr().err
        assert f"config error: {path}: {''.join(message)}" in stderr
        assert "Traceback" not in stderr
        assert [p.name for p in tmp_path.iterdir()] == ["malformed.cfg"]

    def test_name_cannot_leave_out_dir(self, tmp_path):
        # Nothing is written, neither in --out nor next to it.
        _, bad = _malformed_config(tmp_path, MALFORMED_FIELDS["name_parent_dir"][0])
        out = tmp_path / "sub" / "o"
        assert simcli.main(["run", "--config", str(bad), "--out", str(out)]) == 2
        good = short_noisy_config(tmp_path, t_final=0.2)
        assert simcli.main(["compare", str(good), str(bad), "--out", str(out)]) == 2
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["malformed.cfg", "short.cfg"]

    def test_compare_with_one_malformed_member(self, tmp_path, capsys):
        good = short_noisy_config(tmp_path, t_final=0.2)
        _, bad = _malformed_config(tmp_path, MALFORMED_FIELDS["x0_length"][0])
        assert simcli.main(["compare", str(good), str(bad),
                            "--out", str(tmp_path / "cmp")]) == 2
        assert "config error: x0: " in capsys.readouterr().err

    # At h = 1 ms and record_stride 10 hf_content needs 64 samples, evenly spaced: 0.625 s
    # ends 5 steps after the last strided sample, so its sample at t_final is off the grid.
    @pytest.mark.parametrize("t_final, samples", [(0.2, 21), (0.62, 63), (0.625, 64)])
    def test_compare_with_short_or_uneven_records(self, tmp_path, capsys, t_final, samples):
        paths = [short_noisy_config(tmp_path, name=name, t_final=t_final) for name in ("a", "b")]
        out = tmp_path / "cmp"
        assert simcli.main(["compare", *map(str, paths), "--out", str(out)]) == 2
        stderr = capsys.readouterr().err
        assert f"config error: record_stride: compare member 'a' records {samples} " in stderr
        assert "Traceback" not in stderr
        assert not out.exists()


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
    return Trajectory(t=np.linspace(0.0, 1.0, N), x=x, x_r=x_r, x_ri=block(N, n), e_L=e_L,
                      u=block(N, m), W_hat=block(N, s + n, m), c=block(N, n_c))


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
        # The derived norm budget against the per-sample norms it replaced.
        rng = np.random.default_rng(len(mods))
        m = 2 if any(mod.col == 1 for mod in mods) else 1
        truth = UncertaintyTruth(W_p_base=rng.standard_normal((6, m)), modulations=mods)
        lam = np.linspace(0.7, 1.3, m)
        K = rng.standard_normal((m, 3))
        budget, _ = analysis.aggregated_truth_bounds(truth, lam, K, theta_max=0.0)
        ts = np.linspace(0.0, 12.5, 2001)
        norms = [np.linalg.norm(aggregate_true_weights(truth, lam, K, t=float(t))) for t in ts]
        if not mods:
            assert norms == [budget] * ts.size
        assert max(norms) <= budget * (1.0 + 1e-15)
        if mods and all(mod.start > ts[-1] for mod in mods):
            # A grid that ends before a start misses that entry's share of the sup.
            assert max(norms) < budget
        # All factors are 1 at t = pi/2 + 2 pi k past the last start.
        last = max([0.0] + [mod.start for mod in mods])
        t = math.pi / 2.0 + 2.0 * math.pi * (math.floor(last / (2.0 * math.pi)) + 1)
        assert np.linalg.norm(aggregate_true_weights(truth, lam, K, t=t)) == pytest.approx(
            budget, rel=1e-14)


class TestCmdRun:
    def test_writes_all_outputs(self, tmp_path):
        cfg = short_noisy_config(tmp_path)
        out = tmp_path / "out"
        assert simcli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "short.csv").exists()
        bounds = json.loads((out / "short_bounds.json").read_text())
        assert {"kind", "bound_value", "observed", "satisfied"} <= set(bounds)
        # The 3 s run ends before the 45 s sin modulation starts and still reports the
        # truth's derived norm budget.
        scn, _ = load_config(str(cfg))
        assert bounds["inputs"]["w_tilde_max"] == analysis.aggregated_truth_bounds(
            scn.plant.truth, scn.plant.Lambda, scn.controller.K,
            scn.controller.projection.theta_max)[0]
        manifest = json.loads((out / "short_manifest.json").read_text())
        assert manifest["seed"] == 20131007
        assert len(manifest["scenario_hash"]) == 64
        assert manifest["versions"]["flmrac"]

    # A run integrates the file's h: one that diverges at it writes nothing.
    @pytest.mark.parametrize("kappa, file_h, code", [
        (100.0, 1e-3, 0),
        # kappa h = 10 and 5 lie outside RK4's stability region.
        (1e4, 1e-3, 3),
        (1e4, 5e-4, 3),
    ])
    def test_manifest_describes_the_file(self, tmp_path, kappa, file_h, code):
        _, raw = load_config("wingrock_proposed")
        raw.update(name="stiff", t_final=0.5, h=file_h)
        raw["controller"]["kappa"] = kappa
        raw["noise"]["std"] = []
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert simcli.main(["run", "--config", str(cfg), "--out", str(out)]) == code
        if code:
            assert list(out.iterdir()) == []
            return
        scn, _ = load_config(str(cfg))
        manifest = json.loads((out / "stiff_manifest.json").read_text())
        assert manifest["h"] == file_h
        assert manifest["scenario_hash"] == hashlib.sha256(
            serialize_scenario(scn).encode()).hexdigest()
        assert len(read_csv_columns(out / "stiff.csv")["t"]) == scn.samples
        assert set(manifest) == {"scenario", "scenario_hash", "seed", "h",
                                 "versions", "timestamp", "outputs"}

    def test_byte_determinism(self, tmp_path):
        # 3003 steps at record_stride 10: the sample at t_final, step 3003, is off the
        # stride, and the run spans several of the simulator's 1024-step input tables.
        cfg = short_noisy_config(tmp_path, t_final=3.003)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert simcli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert simcli.main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "short.csv").read_bytes() == (out2 / "short.csv").read_bytes()
        h = load_config(str(cfg))[0].h
        assert read_csv_columns(out1 / "short.csv")["t"][-2:].tolist() == [3000 * h, 3003 * h]

    def test_seed_override_changes_output(self, tmp_path):
        # Two files that differ only in noise.seed.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        cfg1 = short_noisy_config(tmp_path / "a")
        cfg2 = short_noisy_config(tmp_path / "b", seed=7)
        out1, out2 = tmp_path / "a" / "out", tmp_path / "b" / "out"
        assert simcli.main(["run", "--config", str(cfg1), "--out", str(out1)]) == 0
        assert simcli.main(["run", "--config", str(cfg2), "--out", str(out2)]) == 0
        assert (out1 / "short.csv").read_bytes() != (out2 / "short.csv").read_bytes()
        manifest = json.loads((out2 / "short_manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_validation_exit_code(self, tmp_path):
        _, raw = load_config("wingrock_proposed")
        del raw["controller"]["gamma"]
        bad = tmp_path / "bad.cfg"
        bad.write_text(json.dumps(raw))
        assert simcli.main(["run", "--config", str(bad),
                            "--out", str(tmp_path / "o")]) == 2

    @staticmethod
    def _stiff_config(tmp_path):
        """kappa h = 50 lies far outside the RK4 stability region, so the run exits 3."""
        _, raw = load_config("wingrock_proposed")
        raw["name"] = "stiff"
        raw["controller"]["kappa"] = 5e4
        raw["noise"]["std"] = []
        raw["t_final"] = 5.0
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text(json.dumps(raw))
        return cfg

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = self._stiff_config(tmp_path)
        assert simcli.main(["run", "--config", str(cfg),
                            "--out", str(tmp_path / "o")]) == 3
        stderr = capsys.readouterr().err
        # The file's h is run once, not retried.
        assert stderr.count("simulation diverged at") == 1 and "retrying" not in stderr
        # The divergence is reported by its block.  A numpy RuntimeWarning would fail
        # the test through pyproject.toml's filterwarnings.
        assert "(signal: " in stderr and "Traceback" not in stderr

    def test_run_after_a_divergence_writes_a_clean_process_csv(self, tmp_path):
        # The diverged run leaves NaN and infinity in memory that numpy hands
        # out again; the next run in the process must not read any of it.
        assert simcli.main(["run", "--config", str(self._stiff_config(tmp_path)),
                            "--out", str(tmp_path / "o")]) == 3
        cfg = short_noisy_config(tmp_path, t_final=0.5)
        assert simcli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "after")]) == 0
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(simcli.__file__).parents[1])}
        subprocess.run([sys.executable, "-m", "flmrac.simcli", "run", "--config", str(cfg),
                        "--out", str(tmp_path / "clean")], env=env, check=True,
                       capture_output=True)
        after = (tmp_path / "after" / "short.csv").read_bytes()
        assert after == (tmp_path / "clean" / "short.csv").read_bytes()


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

    def test_members_compared_after_parsing(self, tmp_path):
        # Two spellings of one plant and command: integral numbers without a
        # fraction, and defaults (a modulation start, the command offset) left out.
        cfg = short_noisy_config(tmp_path, t_final=1.0)
        raw = json.loads(cfg.read_text())
        raw["plant"]["truth"]["modulations"][0]["start"] = 0.0
        cfg.write_text(json.dumps(raw))
        plant = raw["plant"]
        plant["A_p"]["data"] = [int(v) for v in plant["A_p"]["data"]]
        plant["B_p"]["data"] = [int(v) for v in plant["B_p"]["data"]]
        del plant["truth"]["modulations"][0]["start"]
        del raw["command"]["offset"]
        spelled = tmp_path / "spelled.cfg"
        spelled.write_text(json.dumps(raw))
        out = tmp_path / "cmp"
        assert simcli.main(["compare", str(cfg), str(spelled), "--out", str(out)]) == 0
        a, b = json.loads((out / "compare_report.json").read_text())["runs"]
        assert a == b

    def test_shortest_even_record_accepted(self, tmp_path):
        # 630 steps at record_stride 10 record 64 samples.
        paths = [short_noisy_config(tmp_path, name=name, t_final=0.63) for name in ("a", "b")]
        out = tmp_path / "cmp"
        assert simcli.main(["compare", *map(str, paths), "--out", str(out)]) == 0
        assert len(json.loads((out / "compare_report.json").read_text())["runs"]) == 2

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

    def test_report_rows_are_run_metrics(self, tmp_path):
        cfg = short_noisy_config(tmp_path, t_final=1.0)
        out = tmp_path / "cmp"
        assert simcli.main(["compare", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "compare_report.json").read_text())
        assert report["cutoff_rad_s"] == analysis.DEFAULT_HF_CUTOFF
        scn, _ = load_config(str(cfg))
        assert report["runs"] == [analysis.run_metrics(scn, run(scn))]

    def test_diverging_member_exits_3_and_is_named(self, tmp_path, capsys):
        # The first member runs to its end; the second diverges, so no report is written.
        good = short_noisy_config(tmp_path, t_final=1.0)
        stiff = TestCmdRun._stiff_config(tmp_path)
        out = tmp_path / "cmp"
        assert simcli.main(["compare", str(good), str(stiff), "--out", str(out)]) == 3
        stderr = capsys.readouterr().err
        assert stderr.count("simulation diverged at") == 1
        assert "in scenario 'stiff'" in stderr and "Traceback" not in stderr
        assert not (out / "compare_report.json").exists()


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
                                "--eta", str(e), "--out", str(out)])
            assert code == 0
        csvs = sorted(out.glob("bode_*.csv"))
        assert len(csvs) == 6

    def test_grid_ends_are_the_margin_band(self, tmp_path):
        out = tmp_path / "bode"
        assert simcli.main(["bode", "--gamma", "100", "--kappa", "50", "--eta", "10",
                            "--out", str(out)]) == 0
        omega = read_csv_columns(out / "bode_g100_k50_e10.csv")["omega"]
        assert omega.size == simcli.BODE_POINTS
        assert (omega[0], omega[-1]) == analysis.MARGIN_BAND

    @pytest.mark.parametrize("gamma", [1e-12, 100.0, 500.0, 1e9])
    @pytest.mark.parametrize("kappa, eta", [(0.0, 0.0), (0.0, 50.0), (50.0, 0.0), (50.0, 50.0)])
    def test_csv_and_margins_describe_one_band(self, tmp_path, gamma, kappa, eta):
        """Crossovers below, inside and above the band: the margins file reports one
        exactly when the CSV's gain changes sign, inside the cell where it does."""
        out = tmp_path / "bode"
        assert simcli.main(["bode", "--gamma", repr(gamma), "--kappa", repr(kappa),
                            "--eta", repr(eta), "--out", str(out)]) == 0
        (csv_path,) = out.glob("*.csv")
        cols = read_csv_columns(csv_path)
        omega, mag_db = cols["omega"], cols["mag_db"]
        assert (omega[0], omega[-1]) == analysis.MARGIN_BAND
        wc = json.loads(csv_path.with_name(csv_path.stem + "_margins.json").read_text())[
            "gain_crossover_rad_s"]
        cells = np.flatnonzero(np.sign(mag_db[:-1]) != np.sign(mag_db[1:]))
        assert (wc is not None) == (cells.size > 0)
        if wc is not None:
            (i,) = cells
            assert omega[i] <= wc <= omega[i + 1]

    def test_margin_report_written(self, tmp_path):
        out = tmp_path / "bode"
        simcli.main(["bode", "--gamma", "100", "--kappa", "50", "--eta", "10",
                     "--out", str(out)])
        rep = json.loads((out / "bode_g100_k50_e10_margins.json").read_text())
        assert rep["delay_margin_s"] > 0
        assert rep["phase_margin_deg"] > 0

    @pytest.mark.parametrize("args, flag", [
        (["--gamma", "nan"], "--gamma"),
        (["--gamma", "-100"], "--gamma"),
        (["--kappa", "-1"], "--kappa"),
        (["--eta", "inf"], "--eta"),
        (["--alpha", "0"], "--alpha"),
        # Finite, but the crossover cubic's squares overflow.
        (["--gamma", "1e200"], "--gamma"),
        (["--kappa", "1e200"], "--kappa"),
        # Positive, but |G| underflows to 0 on the band: its dB would be -inf.
        (["--gamma", "1e-320", "--kappa", "0", "--eta", "0"], "--gamma"),
        (["--alpha", "1e-320"], "--alpha"),
        (["--gamma", "1e-170", "--kappa", "1e150"], "--gamma"),
    ])
    def test_out_of_domain_argument_exits_2(self, tmp_path, capsys, args, flag):
        out = tmp_path / "bode"
        # The last value of a repeated flag wins.
        assert simcli.main(["bode", "--gamma", "100", "--kappa", "50", "--eta", "10",
                            *args, "--out", str(out)]) == 2
        stderr = capsys.readouterr().err
        assert flag in stderr and "Traceback" not in stderr
        assert not out.exists()

    def test_loops_share_one_read_only_band(self, tmp_path):
        out = tmp_path / "bode"
        for gamma in ("100", "2000"):
            assert simcli.main(["bode", "--gamma", gamma, "--kappa", "50", "--eta", "10",
                                "--out", str(out)]) == 0
        lo, hi = analysis.MARGIN_BAND
        fresh = np.logspace(math.log10(lo), math.log10(hi), simcli.BODE_POINTS)
        fresh[0], fresh[-1] = lo, hi
        csvs = sorted(out.glob("*.csv"))
        assert len(csvs) == 2
        for path in csvs:
            lines = path.read_text().splitlines()[1:]
            assert [line.split(",")[0] for line in lines] == ["%.17g" % w for w in fresh]
        grid, _ = simcli.bode_band()
        assert simcli.bode_band()[0] is grid and np.array_equal(grid, fresh)
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 1.0

    @pytest.mark.parametrize("flag, values", [("--alpha", ["1", "2"]),
                                              ("--gamma", ["100", "100.00012"])])
    def test_distinct_loops_write_distinct_files(self, tmp_path, flag, values):
        out = tmp_path / "bode"
        for value in values:
            assert simcli.main(["bode", "--gamma", "100", "--kappa", "50", "--eta", "10",
                                flag, value, "--out", str(out)]) == 0
        assert len(list(out.glob("bode_*.csv"))) == 2
        assert len(list(out.glob("bode_*_margins.json"))) == 2

    def test_reused_parser_keeps_no_values(self, tmp_path):
        out = tmp_path / "bode"
        args = ["bode", "--gamma", "100", "--kappa", "50", "--eta", "10", "--out", str(out)]
        assert simcli.main([*args, "--alpha", "2"]) == 0
        assert [p.name for p in out.glob("*.csv")] == ["bode_g100_k50_e10_a2.csv"]
        assert simcli.main(args) == 0
        assert sorted(p.name for p in out.glob("*.csv")) == [
            "bode_g100_k50_e10.csv", "bode_g100_k50_e10_a2.csv"]

    def test_parser_error_then_valid_call(self, tmp_path, capsys):
        args = ["bode", "--gamma", "100", "--kappa", "50", "--eta", "10"]
        with pytest.raises(SystemExit) as err:
            simcli.main(args)
        assert err.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert simcli.main([*args, "--out", str(tmp_path / "bode")]) == 0

    def test_handler_replaced_after_parser_built_runs(self, tmp_path, monkeypatch):
        simcli.build_parser()
        monkeypatch.setattr(simcli, "cmd_bode", lambda args: 7)
        assert simcli.main(["bode", "--gamma", "1", "--kappa", "0", "--eta", "0",
                            "--out", str(tmp_path)]) == 7

    def test_no_crossover_reports_none(self, tmp_path):
        out = tmp_path / "bode"
        code = simcli.main(["bode", "--gamma", "1e-12", "--kappa", "0",
                            "--eta", "0", "--out", str(out)])
        assert code == 0
        rep = json.loads((out / "bode_g1e-12_k0_e0_margins.json").read_text())
        assert rep["delay_margin_s"] is None

    @pytest.mark.parametrize("loop", [
        # Crossover near 1e75 rad/s: the cubic at the unpolished root overflows.
        ["--gamma", "1e150", "--kappa", "0", "--eta", "0"],
        # Crossover near 1e-50 rad/s: the cubic's slope at the unpolished root is 0.
        ["--gamma", "1", "--kappa", "0", "--eta", "1", "--alpha", "1e-100"],
    ])
    def test_far_out_of_band_crossover_reports_none(self, tmp_path, capsys, loop):
        out = tmp_path / "bode"
        assert simcli.main(["bode", *loop, "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        (rep_path,) = out.glob("*_margins.json")
        assert json.loads(rep_path.read_text())["delay_margin_s"] is None


class TestCmdPlot:
    @pytest.mark.parametrize("args", [[], ["--columns", ""], ["--columns", ","]])
    def test_trajectory_without_columns_rejected(self, tmp_path, capsys, args):
        # No column selected draws the Bode layout, which a trajectory CSV cannot fill.
        cfg = short_noisy_config(tmp_path, t_final=2.0)
        out = tmp_path / "o"
        simcli.main(["run", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert simcli.main(["plot", "--csv", str(out / "short.csv"),
                            "--out", str(tmp_path / "p.svg"), *args]) == 2
        stderr = capsys.readouterr().err
        assert "config error: --csv: without --columns" in stderr and "Traceback" not in stderr
        assert not (tmp_path / "p.svg").exists()

    def test_unknown_column_rejected(self, tmp_path, capsys):
        cfg = short_noisy_config(tmp_path, t_final=2.0)
        out = tmp_path / "o"
        simcli.main(["run", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert simcli.main(["plot", "--csv", str(out / "short.csv"),
                            "--out", str(tmp_path / "p.svg"),
                            "--columns", "x_1,bogus"]) == 2
        stderr = capsys.readouterr().err
        assert "config error: --columns: unknown columns ['bogus']" in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("args, path", [
        (["--columns", "bogus"], "--columns"),
        (["--columns", "mag_db", "--x", "bogus"], "--x"),
        ([], "--csv"),
    ])
    def test_rejected_plot_creates_nothing(self, tmp_path, capsys, args, path):
        csv_path = tmp_path / "b.csv"
        csv_path.write_text("omega,mag_db\n1.0,0.0\n2.0,-6.0\n")
        assert simcli.main(["plot", "--csv", str(csv_path),
                            "--out", str(tmp_path / "newdir" / "p.svg"), *args]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["b.csv"]

    @pytest.mark.parametrize("text, message", [
        (b"omega,mag_db\n1.0,0.0\n2.0\n", "rows of one finite number per column"),
        (b"omega,mag_db\n1.0,0.0\n2.0,abc\n", "could not convert string to float: 'abc'"),
        (b"", "rows of one finite number per column"),
        (b"omega,mag_db\n", "rows of one finite number per column"),
        (b"omega,mag_db\n1.0,nan\n", "rows of one finite number per column"),
        (b"omega,mag_db\n1.0,\xff\n", "can't decode byte 0xff"),
        (b"omega,mag_db,phase_deg\n0.0,0.0,-90.0\n1.0,-6.0,-95.0\n", "omega > 0"),
        (b"omega,mag_db,mag_db\n1.0,0.0,1.0\n2.0,-6.0,-5.0\n", "repeats the header 'mag_db'"),
    ])
    def test_malformed_csv_rejected(self, tmp_path, capsys, text, message):
        csv_path = tmp_path / "b.csv"
        csv_path.write_bytes(text)
        args = [] if b"phase_deg" in text else ["--columns", "mag_db", "--x", "omega"]
        assert simcli.main(["plot", "--csv", str(csv_path), "--out", str(tmp_path / "p.svg"),
                            *args]) == 2
        stderr = capsys.readouterr().err
        assert "config error: --csv: " in stderr and message in stderr
        assert "Traceback" not in stderr
        assert [p.name for p in tmp_path.iterdir()] == ["b.csv"]

    def test_missing_csv_rejected(self, tmp_path, capsys):
        assert simcli.main(["plot", "--csv", str(tmp_path / "none.csv"),
                            "--out", str(tmp_path / "newdir" / "p.svg")]) == 2
        stderr = capsys.readouterr().err
        assert "config error: --csv: " in stderr and "Traceback" not in stderr
        assert list(tmp_path.iterdir()) == []

    def test_csv_that_is_a_directory_rejected(self, tmp_path, capsys):
        assert simcli.main(["plot", "--csv", str(tmp_path),
                            "--out", str(tmp_path / "p.svg")]) == 2
        stderr = capsys.readouterr().err
        assert "config error: --csv: " in stderr and "Traceback" not in stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [["--columns", "x_1,c_1"], []])
    def test_same_csv_gives_the_same_svg(self, tmp_path, args):
        # 3000 rows, so the polylines are decimated too.
        t = np.linspace(0.0, 3.0, 3000)
        table = np.column_stack([t, np.sin(t), np.cos(t), np.logspace(-3, 4, t.size),
                                 -20.0 * t, -90.0 - 30.0 * t])
        csv_path = tmp_path / "d.csv"
        simcli.write_csv(csv_path, ["t", "x_1", "c_1", "omega", "mag_db", "phase_deg"], table)
        svgs = [tmp_path / "a.svg", tmp_path / "b.svg"]
        for svg in svgs:
            assert simcli.main(["plot", "--csv", str(csv_path), "--out", str(svg), *args]) == 0
        assert svgs[0].read_bytes() == svgs[1].read_bytes()

    @staticmethod
    def _bode_x_axes(tmp_path, csv_path):
        """(tick x positions, tick labels) under each panel of the Bode plot of csv_path."""
        svg = tmp_path / "bode.svg"
        assert simcli.main(["plot", "--csv", str(csv_path), "--out", str(svg)]) == 0
        text = svg.read_text()
        axes = []
        for bottom in (295, 595):  # the lower edge of each panel
            ticks = re.findall(rf'<line x1="([\d.]+)" y1="{bottom}" x2="\1" '
                               rf'y2="{bottom + 5}"', text)
            labels = re.findall(rf'<text x="[\d.]+" y="{bottom + 18}" font-size="11" '
                                r'text-anchor="middle">([^<]*)</text>', text)
            axes.append(([float(x) for x in ticks], labels))
        return axes

    def test_bode_axis_has_one_tick_per_decade(self, tmp_path):
        out = tmp_path / "bode"
        assert simcli.main(["bode", "--gamma", "100", "--kappa", "50", "--eta", "10",
                            "--out", str(out)]) == 0
        for ticks, labels in self._bode_x_axes(tmp_path, out / "bode_g100_k50_e10.csv"):
            assert labels == ["0.001", "0.01", "0.1", "1", "10", "100", "1000", "1e+04"]
            # Decades evenly spaced across the 765-wide panel at x = 70.
            assert ticks == pytest.approx([70 + 765 * k / 7 for k in range(8)], abs=0.006)

    def test_log_axis_inside_one_decade_ticks_its_ends(self, tmp_path):
        csv_path = tmp_path / "b.csv"
        csv_path.write_text("omega,mag_db,phase_deg\n2,6,-100\n4,0,-120\n8,-6,-140\n")
        axes = self._bode_x_axes(tmp_path, csv_path)
        assert axes == [([70.0, 835.0], ["2", "8"])] * 2

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
                     "--out", str(out)])
        svg = tmp_path / "bode.svg"
        code = simcli.main(["plot", "--csv", str(out / "bode_g100_k50_e10.csv"),
                            "--out", str(svg)])
        assert code == 0
        text = svg.read_text()
        assert text.count("<polyline") == 2
        assert "magnitude [dB]" in text and "phase [deg]" in text

    def test_decimated_polyline_ends_at_the_last_sample(self, tmp_path):
        # 2002 rows are drawn at every 2nd row, so the last row lies off the stride.
        t = np.linspace(0.0, 2.001, 2002)
        csv_path = tmp_path / "d.csv"
        simcli.write_csv(csv_path, ["t", "x_1"], np.column_stack([t, np.cos(t)]))
        svg = tmp_path / "d.svg"
        assert simcli.main(["plot", "--csv", str(csv_path), "--out", str(svg),
                            "--columns", "x_1"]) == 0
        points = re.search(r'<polyline points="([^"]*)"', svg.read_text()).group(1).split()
        assert len(points) <= 1 + t.size // 2
        # The panel spans x = 70 to 70 + 765 over t[0] to t[-1].
        assert points[0].startswith("70.00,") and points[-1].startswith("835.00,")


@pytest.mark.parametrize("command, report", [
    (["run", "--config"], "tiny_gamma_bounds.json"),
    (["compare"], "compare_report.json"),
])
def test_bound_that_overflows_is_written_as_null(tmp_path, command, report):
    # gamma^-1 ||W_tilde0 Lambda^(1/2)||_F^2 overflows: the bound is inf, which
    # standard JSON cannot spell.  630 steps at record_stride 10 suit compare.
    _, raw = load_config("wingrock_kappa_only")
    raw.update(name="tiny_gamma", t_final=0.63)
    raw["controller"]["gamma"] = 1e-320
    cfg = tmp_path / "tiny_gamma.cfg"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert simcli.main([*command, str(cfg), "--out", str(out)]) == 0
    text = (out / report).read_text()
    data = json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in {text}"))
    row = data["runs"][0] if command == ["compare"] else data
    assert row["bound_value"] is None
    assert row["bound_satisfied" if command == ["compare"] else "satisfied"] is True


#: The arguments before --out of each command that takes one.
_OUT_COMMANDS = {
    "run": ["run", "--config", "wingrock_proposed"],
    "compare": ["compare", "wingrock_proposed", "wingrock_proposed"],
    "bode": ["bode", "--gamma", "100", "--kappa", "50", "--eta", "10"],
    "plot": ["plot", "--csv", "{tmp}/b.csv"],
}


@pytest.mark.parametrize("command, flag", [
    ("run", "--seed-override"), ("run", "--step-size"), ("compare", "--cutoff"),
    ("bode", "--omega-min"), ("bode", "--omega-max"), ("bode", "--points"), ("plot", "--bode")])
def test_removed_flag_exits_2(tmp_path, capsys, command, flag):
    """A run is its scenario file, bode draws one fixed band, and plot draws the Bode
    layout without --columns."""
    (tmp_path / "b.csv").write_text("omega,mag_db,phase_deg\n1.0,0.0,-90.0\n2.0,-6.0,-95.0\n")
    args = [a.format(tmp=tmp_path) for a in _OUT_COMMANDS[command]]
    with pytest.raises(SystemExit) as err:
        simcli.main([*args, flag, "1", "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in stderr and "Traceback" not in stderr
    assert [p.name for p in tmp_path.iterdir()] == ["b.csv"]


class TestOutFlag:
    """--out is a directory for run, compare and bode and a file for plot."""

    @pytest.mark.parametrize("command, out", [
        ("run", "taken"), ("run", "taken/sub"),
        ("compare", "taken"), ("compare", "taken/sub"),
        ("bode", "taken"), ("bode", "taken/sub"),
        ("plot", "folder"), ("plot", "taken/p.svg"),
    ])
    def test_unusable_out_exits_2_before_any_work(self, tmp_path, capsys, command, out):
        # "taken" is a file and "folder" a directory.
        (tmp_path / "taken").write_text("kept\n")
        (tmp_path / "folder").mkdir()
        (tmp_path / "b.csv").write_text("omega,mag_db,phase_deg\n1.0,0.0,-90.0\n2.0,-6.0,-95.0\n")
        before = sorted(tmp_path.rglob("*"))
        args = [a.format(tmp=tmp_path) for a in _OUT_COMMANDS[command]]
        assert simcli.main([*args, "--out", str(tmp_path / out)]) == 2
        stderr = capsys.readouterr().err
        assert "config error: --out: " in stderr and "Traceback" not in stderr
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "taken").read_text() == "kept\n"


def test_readme_library_use_runs(capsys):
    """README's "Library use" snippet, run as written, prints three finite numbers."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    code = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3 and all(math.isfinite(float(v)) for v in printed)


def test_readme_cli_block_lists_every_option():
    """The --flags of each command in README's CLI block are exactly its parser's options."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    documented = {}
    for line in block.replace("\\\n", " ").splitlines():
        _, command, *rest = line.split()
        documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", " ".join(rest)))
    subparsers = next(a for a in simcli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {command: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
               for command, sub in subparsers.choices.items()}
    assert documented == options
