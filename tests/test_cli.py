"""End-to-end CLI runs, exit codes, run manifests."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

import phononherald
from phononherald import cli, config as config_mod


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def fast_config_path(tmp_path, fast_config):
    path = tmp_path / "fast.json"
    config_mod.save(fast_config, path)
    return path


def fresh_env():
    """Environment in which a fresh interpreter imports this phononherald."""
    src = str(Path(phononherald.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def loaded_modules(argv=()):
    """Modules a fresh interpreter holds after importing the CLI and, when
    ``argv`` is given, running it; also the exit code."""
    code = ("import json, sys, phononherald.cli as cli; "
            "argv = sys.argv[1:]; code = cli.main(argv) if argv else 0; "
            "print(json.dumps([code, sorted(sys.modules)]))")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          env=fresh_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


def scipy_modules(modules):
    return {m for m in modules if m.split(".")[0] == "scipy"}


def test_cli_does_not_import_fock_oracle():
    _, modules = loaded_modules()
    assert "phononherald.fock" not in modules
    assert not scipy_modules(modules)


def test_stages_load_only_the_scipy_they_use(tmp_path, fast_config_path):
    stream = tmp_path / "run.tags"
    code, modules = loaded_modules(["simulate", "--config", fast_config_path,
                                    "--out", stream])
    assert code == 0 and not scipy_modules(modules)
    code, modules = loaded_modules(["reproduce", "--figure", "fig3c",
                                    "--out", tmp_path / "figs"])
    assert code == 0 and not scipy_modules(modules)
    for argv in (["analyze", stream, "--config", fast_config_path, "--delta-n", 3,
                  "--out", tmp_path / "analysis"],
                 ["thermometry", "--pulses", 200_000, "--out", tmp_path / "t.json"]):
        code, modules = loaded_modules(argv)
        assert code == 0 and "scipy.special" in modules
        assert not {"scipy.stats", "scipy.optimize"} & modules


class TestSimulateAnalyze:
    def test_round_trip_success(self, tmp_path, fast_config_path):
        stream = tmp_path / "run.tags"
        assert run(["simulate", "--config", fast_config_path,
                    "--out", stream, "--trials", 100_000]) == 0
        assert stream.exists()
        manifest = json.loads((tmp_path / "run.tags.manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert len(manifest["config_hash"]) == 16
        assert manifest["versions"] == {"python": platform.python_version(),
                                        "numpy": numpy.__version__,
                                        "scipy": scipy.__version__}

        out = tmp_path / "analysis"
        assert run(["analyze", stream, "--config", fast_config_path,
                    "--out", out, "--trials", 100_000, "--delta-n", 3]) == 0
        rows = (out / "correlations.csv").read_text().strip().splitlines()
        assert rows[0].startswith("delta_t_ns,g2_om,ci_minus,ci_plus,bound")
        assert len(rows) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary[0]["g2_om"]["value"] > 1.0
        assert set(summary[0]["delta_n"]) == {"1", "2", "3"}
        assert "violated" in summary[0]["cauchy_schwarz"]

    def test_deterministic_across_threads(self, tmp_path, fast_config_path):
        a, b = tmp_path / "a.tags", tmp_path / "b.tags"
        run(["simulate", "--config", fast_config_path, "--out", a,
             "--trials", 50_000, "--threads", 1])
        run(["simulate", "--config", fast_config_path, "--out", b,
             "--trials", 50_000, "--threads", 4])
        assert a.read_bytes() == b.read_bytes()

    def test_read_window_trim_flag(self, tmp_path, fast_config_path):
        stream = tmp_path / "run.tags"
        run(["simulate", "--config", fast_config_path, "--out", stream,
             "--trials", 100_000])
        full = tmp_path / "full"
        trimmed = tmp_path / "trimmed"
        run(["analyze", stream, "--config", fast_config_path, "--out", full,
             "--trials", 100_000])
        run(["analyze", stream, "--config", fast_config_path, "--out", trimmed,
             "--trials", 100_000, "--read-window-ns", 30])
        n_full = json.loads((full / "summary.json").read_text())[0]["counters"]["N_R"]
        n_trim = json.loads((trimmed / "summary.json").read_text())[0]["counters"]["N_R"]
        assert n_trim < n_full


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"protocol": {"p_pair": 7.0}}')
        assert run(["simulate", "--config", bad,
                    "--out", tmp_path / "x.tags", "--trials", 10]) == 2

    @pytest.mark.parametrize("text", [
        '{"protocol": {"trials": 1.5}}',
        '{"protocol": {"p_pair": "x"}}',
        '{"heating": {"a_heat": null}}',
        '{"seed": true}',
        '{"protocol": {"delta_t_list_ns": 100}}',
    ], ids=["float-trials", "string-p_pair", "null-a_heat", "bool-seed",
            "scalar-delays"])
    def test_mistyped_config_is_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run(["simulate", "--config", bad,
                    "--out", tmp_path / "x.tags"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("chain,argv", [
        ('{"leak_fraction": 1.0}', ["simulate", "--out", "x.tags"]),
        ('{"leak_fraction": 1.0}', ["thermometry", "--out", "t.json"]),
        ('{"leak_fraction": 1.0}', ["reproduce", "--figure", "fig3c", "--out", "figs"]),
        ('{"leak_fraction": 1.0}', ["reproduce", "--figure", "m3", "--out", "figs"]),
        ('{"eta_path1": 0.9, "eta_path2": 0.9, "eta_c": 1.0, "eta_fc": 1.0}',
         ["simulate", "--out", "x.tags"]),
        ('{"dark_rate_hz": 1e8}', ["thermometry", "--out", "t.json"]),
    ], ids=["leak-simulate", "leak-thermometry", "leak-fig3c", "leak-m3",
            "efficiency-sum", "dark-probability"])
    def test_detection_chain_gap_is_2(self, tmp_path, monkeypatch, capsys, chain,
                                      argv):
        # each reaches config.check, which names the field, before any
        # stage divides by 1 - leak_fraction or builds a detector model
        monkeypatch.chdir(tmp_path)
        Path("bad.json").write_text(f'{{"chain": {chain}}}')
        assert run(argv + ["--config", "bad.json"]) == 2
        err = capsys.readouterr().err
        assert "config error: chain." in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--out", "x.tags"],
        ["reproduce", "--figure", "fig3c", "--out", "figs"],
    ], ids=["simulate", "reproduce"])
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_nonpositive_threads_is_2(self, tmp_path, monkeypatch, capsys, argv,
                                      threads):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--threads", threads])
        assert exc.value.code == 2
        assert "--threads: expected an integer >= 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_format_error_is_4(self, tmp_path, fast_config_path):
        corrupt = tmp_path / "corrupt.tags"
        corrupt.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNK")
        assert run(["analyze", corrupt, "--config", fast_config_path,
                    "--out", tmp_path / "o"]) == 4

    def test_hash_drift_is_4(self, tmp_path, fast_config_path):
        stream = tmp_path / "run.tags"
        run(["simulate", "--config", fast_config_path, "--out", stream,
             "--trials", 1000])
        # different seed -> different config hash than the stream header
        assert run(["analyze", stream, "--config", fast_config_path,
                    "--out", tmp_path / "o", "--trials", 1000,
                    "--seed", 12345]) == 4

    def test_degenerate_statistics_is_5(self, tmp_path):
        # default rates at tiny trial counts leave no coincidences
        stream = tmp_path / "thin.tags"
        assert run(["simulate", "--out", stream, "--trials", 2000]) == 0
        code = run(["analyze", stream, "--out", tmp_path / "o",
                    "--trials", 2000])
        assert code == 5
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert "error" in summary[0]

    def test_negative_delta_n_is_2(self, tmp_path, capsys):
        # rejected before the (here missing) stream is read
        assert run(["analyze", tmp_path / "nope.tags", "--delta-n", -3,
                    "--out", tmp_path / "o"]) == 2
        assert not (tmp_path / "o").exists()
        assert "config error" in capsys.readouterr().err

    def test_read_window_outside_window_is_2(self, tmp_path, fast_config_path, capsys):
        stream = tmp_path / "run.tags"
        assert run(["simulate", "--config", fast_config_path, "--out", stream,
                    "--trials", 1000]) == 0
        assert run(["analyze", stream, "--config", fast_config_path,
                    "--out", tmp_path / "o", "--trials", 1000,
                    "--read-window-ns", 80]) == 2
        err = capsys.readouterr().err
        assert "config error: read-window-ns" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_internal_value_error_is_not_a_config_error(self, tmp_path, monkeypatch,
                                                       capsys):
        # a broken invariant inside a stage surfaces as itself, not as exit 2
        def broken(*args, **kwargs):
            raise ValueError("internal invariant")
        monkeypatch.setattr(cli.protocol, "build_outcome_table", broken)
        with pytest.raises(ValueError, match="internal invariant"):
            run(["reproduce", "--figure", "fig3c", "--out", tmp_path / "figs"])
        assert "config error" not in capsys.readouterr().err

    def test_missing_file_is_4(self, tmp_path):
        assert run(["analyze", tmp_path / "nope.tags",
                    "--out", tmp_path / "o"]) == 4

    @pytest.mark.parametrize("argv", [
        ["thermometry", "--pulses", 2, "--out", "t.json"],
        ["reproduce", "--figure", "fig2", "--trials", 2, "--out", "figs"],
        ["reproduce", "--figure", "fig3b", "--trials", 1000, "--out", "figs"],
        ["thermometry", "--pulses", 1, "--out", "t.json"],
        ["reproduce", "--figure", "fig2", "--trials", 1, "--out", "figs"],
    ], ids=["thermometry", "fig2", "fig3b", "thermometry-1-pulse", "fig2-1-trial"])
    def test_degenerate_estimates_are_5(self, tmp_path, monkeypatch, capsys, argv):
        # too few pulses or trials leave a rate-asymmetry pole or no singles
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 5
        err = capsys.readouterr().err
        assert "degenerate statistics" in err
        assert "Traceback" not in err


class TestThermometryCommand:
    def test_report_written(self, tmp_path):
        out = tmp_path / "therm.json"
        assert run(["thermometry", "--pulses", 200_000, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["ideal_asymmetry"] > 40
        assert report["n_th"]["value"] >= 0.0

    def test_zero_base_occupation_is_strict_json(self, tmp_path):
        # with n_base = 0 the ideal red click probability is 0: the ideal
        # asymmetry is written as null, without a numeric warning
        cfg = tmp_path / "cold.json"
        cfg.write_text('{"heating": {"n_base": 0.0}}')
        out = tmp_path / "therm.json"
        proc = subprocess.run(
            [sys.executable, "-m", "phononherald.cli", "thermometry", "--config",
             str(cfg), "--pulses", "200000", "--out", str(out)],
            env=fresh_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")
        report = json.loads(out.read_text(), parse_constant=reject)
        assert report["ideal_asymmetry"] is None

    def test_bad_pulses_is_2(self, tmp_path):
        assert run(["thermometry", "--pulses", 0,
                    "--out", tmp_path / "t.json"]) == 2


class TestReproduce:
    def test_fig3c_series(self, tmp_path):
        out = tmp_path / "figs"
        assert run(["reproduce", "--figure", "fig3c", "--out", out]) == 0
        rows = (out / "fig3c_correlation_decay.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + len(cli.FIG3C_DELAYS)

    def test_fig2_zero_trials_is_2(self, tmp_path, capsys):
        # 0 pulses per color, as for thermometry --pulses 0, not the 1e6 default
        out = tmp_path / "figs"
        assert run(["reproduce", "--figure", "fig2", "--trials", 0, "--out", out]) == 2
        assert not (out / "fig2_thermometry.csv").exists()
        assert "config error" in capsys.readouterr().err

    def test_m3_fits(self, tmp_path):
        out = tmp_path / "figs"
        assert run(["reproduce", "--figure", "m3", "--out", out]) == 0
        fits = json.loads((out / "m3_fits.json").read_text())
        assert fits["decay_time_constant_us"] == pytest.approx(34.4, rel=0.05)
        assert fits["rise_time_constant_us"] == pytest.approx(0.37, rel=0.1)


class TestCalibrateHeating:
    def test_round_trip(self, tmp_path):
        from phononherald import calibrate, config as C
        cfg = C.default_config()
        curve = calibrate.model_curve(cfg, (100.0, 700.0), 0.3)
        target = tmp_path / "target.csv"
        target.write_text("delta_t_ns,g2_om\n" + "".join(
            f"{dt},{g}\n" for dt, g in zip((100.0, 700.0), curve)))
        out = tmp_path / "fit.json"
        assert run(["calibrate-heating", "--target", target, "--out", out]) == 0
        assert json.loads(out.read_text())["a_heat"] == pytest.approx(0.3, abs=2e-3)

    @pytest.mark.parametrize("text", [
        "delta_t_ns,g2\n100.0,8.0\n",
        "delta_t_ns,g2_om\n100.0\n",
        "delta_t_ns,g2_om\n100.0,nan\n",
    ], ids=["no-g2_om-column", "short-row", "nan-target"])
    def test_malformed_target_is_2(self, tmp_path, capsys, text):
        target = tmp_path / "target.csv"
        target.write_text(text)
        out = tmp_path / "fit.json"
        assert run(["calibrate-heating", "--target", target, "--out", out]) == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["thermometry", "--config", "bad.bin", "--out", "t.json"],
        ["calibrate-heating", "--target", "bad.bin", "--out", "fit.json"],
    ], ids=["config", "target"])
    def test_undecodable_input_is_2(self, tmp_path, monkeypatch, capsys, argv):
        # a UnicodeDecodeError is a ValueError, which main no longer maps
        monkeypatch.chdir(tmp_path)
        Path("bad.bin").write_bytes(b"delta_t_ns,g2_om\n100,\xff\n")
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    def test_unreachable_target_is_3(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("delta_t_ns,g2_om\n100.0,5000.0\n")
        assert run(["calibrate-heating", "--target", target,
                    "--out", tmp_path / "fit.json"]) == 3
