"""End-to-end CLI runs, exit codes, run manifests."""

import ast
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phononherald
from phononherald import cli, config as config_mod, protocol


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
    ``argv`` is given, running it; also the exit code. Any import of scipy
    fails in that interpreter."""
    code = ("import json, sys; sys.modules['scipy'] = None; "
            "import phononherald.cli as cli; "
            "argv = sys.argv[1:]; code = cli.main(argv) if argv else 0; "
            "print(json.dumps([code, sorted(m for m, mod in sys.modules.items() "
            "if mod is not None)]))")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          env=fresh_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


def reject_constant(constant):
    """``parse_constant`` hook: strict JSON has no NaN or Infinity."""
    raise ValueError(f"non-standard JSON constant {constant}")


def scipy_modules(modules):
    return {m for m in modules if m.split(".")[0] == "scipy"}


def test_cli_does_not_import_fock_oracle():
    _, modules = loaded_modules()
    assert "phononherald.fock" not in modules
    assert not scipy_modules(modules)


def test_calibrate_does_not_import_analysis():
    # the heating fit takes its golden section from protocol
    code = "import json, sys, phononherald.calibrate; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    assert "phononherald.analysis" not in json.loads(proc.stdout)


def test_package_root_imports_no_numpy():
    # the package's API is its modules: the root holds only __version__
    code = "import json, sys, phononherald; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    modules = set(json.loads(proc.stdout))
    assert "numpy" not in modules
    assert not {m for m in modules if m.startswith("phononherald.")}


def test_no_package_module_imports_scipy():
    """Every import statement of the package, at module level or inside a
    function, names a module other than scipy: the package needs numpy
    alone."""
    found = []
    for path in sorted(Path(phononherald.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found


def test_fock_oracle_imports_without_scipy():
    code = "import sys; sys.modules['scipy'] = None; import phononherald.fock"
    subprocess.run([sys.executable, "-c", code], env=fresh_env(), timeout=120,
                   check=True)


def test_no_stage_imports_scipy(tmp_path, fast_config_path):
    from phononherald import calibrate, config as C
    target = tmp_path / "target.csv"
    curve = calibrate.model_curve(C.default_config(), (100.0, 700.0), 0.3)
    target.write_text("delta_t_ns,g2_om\n" + "".join(
        f"{dt},{g}\n" for dt, g in zip((100.0, 700.0), curve)))
    stream = tmp_path / "run.tags"
    fast = ["--config", fast_config_path]
    stages = [["simulate", *fast, "--out", stream],
              ["analyze", stream, *fast, "--delta-n", 3, "--out", tmp_path / "analysis"],
              ["thermometry", "--pulses", 200_000, "--out", tmp_path / "t.json"],
              ["calibrate-heating", "--target", target, "--out", tmp_path / "fit.json"],
              ["reproduce", "--figure", "fig2", "--trials", 200_000,
               "--out", tmp_path / "figs"],
              ["reproduce", "--figure", "fig3b", *fast, "--out", tmp_path / "figs"]]
    stages += [["reproduce", "--figure", fig, "--out", tmp_path / "figs"]
               for fig in ("fig3c", "m3")]
    for argv in stages:
        code, modules = loaded_modules(argv)
        assert code == 0 and not scipy_modules(modules), argv
        # a stage imports analysis and calibrate only if it uses them
        if argv[0] == "simulate" or "fig3c" in argv:
            assert not {"phononherald.analysis", "phononherald.calibrate"} & modules, argv


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
                                        "numpy": numpy.__version__}

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

    @pytest.mark.parametrize("fast, common, delta_n, code, digests", [
        # every estimate defined, with the offsets 1..3 and their pool
        (True, [], 3, 0,
         ("c7f3a99b109ba0568a4b63416d76a2c47bbf1395fa39b0c133b80a6d81891702",
          "df19f861c652bfd27f69dc326f8d37b5fef57ea100a5ab4e3732d5a20ec81088")),
        # two settings at seed 2: neither window has a coincidence, so each
        # entry's bound is undefined, written as an error next to the
        # estimates that its counts define
        (False, ["--trials", 1_000_000, "--seed", 2, "--delta-t-ns", 100, 1000], 2, 5,
         ("33048bcea5b4b7db16c6c2a52a1c16bfeebf2e24cdb93679e94e5f9cde8aefa8",
          "cefd9e00ff21510ed606ef4a008cf86ef487be38ae6ac634ec755c395b2888bf")),
    ], ids=["fast", "undefined-bound"])
    def test_golden_analysis_outputs(self, tmp_path, fast_config_path, fast, common,
                                     delta_n, code, digests):
        # pins the bytes of summary.json and correlations.csv: every count,
        # estimate, interval, key order and error message of the statistics
        common = (["--config", fast_config_path] if fast else []) + common
        stream, out = tmp_path / "s.tags", tmp_path / "o"
        assert run(["simulate", "--out", stream, *common]) == 0
        assert run(["analyze", stream, "--out", out, "--delta-n", delta_n, *common]) == code
        got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("summary.json", "correlations.csv"))
        assert got == digests


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
        f'{{"protocol": {{"p_pair": {10 ** 400}}}}}',
        f'{{"protocol": {{"delta_t_list_ns": [{10 ** 400}]}}}}',
        f'{{"protocol": {{"trials": {10 ** 29}}}}}',
        '{"heating": {"n_base": 1e5}}',
        '{"heating": {"n_base": 1e300}}',
    ], ids=["float-trials", "string-p_pair", "null-a_heat", "bool-seed",
            "scalar-delays", "huge-int-p_pair", "huge-int-delay", "huge-trials",
            "hot-n_base", "huge-n_base"])
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
        ('{"window_write_ns": 1e-9, "window_read_ns": 1e-9}',
         ["simulate", "--out", "x.tags"]),
        ('{"window_write_ns": 1e-9, "window_read_ns": 1e-9}',
         ["reproduce", "--figure", "fig3b", "--out", "figs"]),
    ], ids=["leak-simulate", "leak-thermometry", "leak-fig3c", "leak-m3",
            "efficiency-sum", "dark-probability", "sub-ps-windows-simulate",
            "sub-ps-windows-fig3b"])
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
        manifest = json.loads(
            (tmp_path / "o" / "correlations.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "analyze"
        assert manifest["outputs"] == [str(tmp_path / "o" / name) for name in
                                       ("correlations.csv", "summary.json")]

    def test_undefined_bound_keeps_defined_estimates(self, tmp_path):
        # at seed 2 and 1e6 trials neither window has a coincidence, so the
        # bound is undefined, but one write-read coincidence defines g2_om
        stream = tmp_path / "s2.tags"
        common = ["--trials", 1_000_000, "--seed", 2]
        assert run(["simulate", "--out", stream, *common]) == 0
        out = tmp_path / "o"
        assert run(["analyze", stream, "--out", out, "--delta-n", 2, *common]) == 5
        entry, = json.loads((out / "summary.json").read_text())
        assert "both autocorrelations have zero coincidences" in entry["error"]
        assert entry["g2_om"]["counts"]["N_coinc"] == entry["counters"]["N_WR"] == 1
        assert entry["g2_om"]["value"] > 0
        for side in ("g2_auto_write", "g2_auto_read"):
            assert entry[side]["counts"]["N_coinc"] == 0
        assert "classical_bound" not in entry and "cauchy_schwarz" not in entry
        assert set(entry["delta_n"]) == {"1", "2"} and "delta_n_pooled" in entry
        row = (out / "correlations.csv").read_text().splitlines()[1]
        assert row == "100.0," + "nan," * 6 + "false"

    def test_zero_read_side_bound_is_a_one_sided_limit(self, tmp_path):
        # the default config at 1e7 trials: WRITE has one coincidence and READ
        # none, so the bound is 0 with an upper limit, and the test is made
        stream, out = tmp_path / "s.tags", tmp_path / "o"
        assert run(["simulate", "--out", stream]) == 0
        assert run(["analyze", stream, "--out", out]) == 0
        entry, = json.loads((out / "summary.json").read_text())
        assert [entry[side]["counts"]["N_coinc"]
                for side in ("g2_auto_write", "g2_auto_read")] == [1, 0]
        bound = entry["classical_bound"]
        assert bound["value"] == bound["sigma_minus"] == 0.0 < bound["sigma_plus"]
        assert "cauchy_schwarz" in entry and "error" not in entry

    def test_delta_n_from_the_trial_count_is_5(self, tmp_path, capsys,
                                               fast_config_path):
        # no offset >= T leaves a trial pair: from N = T on, both offset
        # estimates are undefined at once, and every other one is written
        stream = tmp_path / "s.tags"
        common = ["--config", fast_config_path, "--trials", 1000]
        assert run(["simulate", "--out", stream, *common]) == 0
        for delta_n, code in ((999, 0), (1000, 5), (10 ** 20, 5)):
            out = tmp_path / str(delta_n)
            assert run(["analyze", stream, "--out", out, "--delta-n", delta_n,
                        *common]) == code
            entry, = json.loads((out / "summary.json").read_text())
            assert "g2_om" in entry and "classical_bound" in entry
            if code:
                assert entry["error"] == "offset 1000 leaves no trial pairs"
                assert "delta_n" not in entry and "delta_n_pooled" not in entry
            else:
                assert len(entry["delta_n"]) == 999
                assert entry["delta_n_pooled"]["counts"]["pairs"] == 999 * 1000 // 2
            manifest = json.loads((out / "correlations.csv.manifest.json").read_text())
            assert manifest["overrides"]["delta_n"] == delta_n
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv, line", [
        (["simulate", "--trials", -5, "--out", "x.tags"],
         "config error: protocol.trials: -5 must be >= 0"),
        (["calibrate-heating", "--target", "target.csv", "--out", "fit.json"],
         "physics error: "),
        (["analyze", "junk.tags", "--out", "o"], "data format error: "),
        (["analyze", "nope.tags", "--out", "o"], "I/O error: "),
        (["thermometry", "--pulses", 2, "--out", "t.json"], "degenerate statistics: "),
    ], ids=["config", "physics", "format", "io", "degenerate"])
    def test_each_failure_prints_one_line(self, tmp_path, argv, line):
        # in a fresh interpreter, so the logging handler writes to the
        # stderr that is read here
        (tmp_path / "target.csv").write_text("delta_t_ns,g2_om\n100.0,5000.0\n")
        (tmp_path / "junk.tags").write_bytes(b"JUNK" * 8)
        proc = subprocess.run(
            [sys.executable, "-m", "phononherald.cli", *map(str, argv)],
            cwd=tmp_path, env=fresh_env(), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode in (2, 3, 4, 5)
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith(line)

    @pytest.mark.parametrize("argv", [
        ["analyze", "empty.tags", "--trials", 0, "--out", "o"],
        ["reproduce", "--figure", "fig3b", "--trials", 0, "--out", "figs"],
    ], ids=["analyze", "fig3b"])
    def test_empty_stream_is_5_with_one_line(self, tmp_path, argv):
        # with no trial every single is zero: found before it is divided by
        # the trial count, which printed four numpy warnings first
        assert run(["simulate", "--trials", 0, "--out", tmp_path / "empty.tags"]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "phononherald.cli", *map(str, argv)],
            cwd=tmp_path, env=fresh_env(), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 5
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert "Warning:" not in proc.stderr

    def test_negative_delta_n_is_2(self, tmp_path, capsys):
        # rejected before the (here missing) stream is read
        assert run(["analyze", tmp_path / "nope.tags", "--delta-n", -3,
                    "--out", tmp_path / "o"]) == 2
        assert not (tmp_path / "o").exists()
        assert "config error" in capsys.readouterr().err

    def test_one_picosecond_windows_analyze(self, tmp_path, monkeypatch):
        # the shortest window the schema admits holds one click time, so the
        # program's own stream is never a format error
        monkeypatch.chdir(tmp_path)
        Path("ps.json").write_text(
            '{"chain": {"window_write_ns": 0.001, "window_read_ns": 0.001}}')
        config_mod.check(config_mod.load("ps.json"))
        argv = ["--config", "ps.json", "--trials", 200_000]
        assert run(["simulate", "--out", "ps.tags", *argv]) == 0
        assert run(["analyze", "ps.tags", "--out", "o", *argv]) in (0, 5)

    def test_read_window_outside_window_is_2(self, tmp_path, fast_config_path, capsys):
        stream = tmp_path / "run.tags"
        assert run(["simulate", "--config", fast_config_path, "--out", stream,
                    "--trials", 1000]) == 0
        # beyond the configured window, and below one picosecond, where the
        # trim would drop every read click
        for trim_ns in (80, 0.0004):
            assert run(["analyze", stream, "--config", fast_config_path,
                        "--out", tmp_path / "o", "--trials", 1000,
                        "--read-window-ns", trim_ns]) == 2
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

    @pytest.mark.parametrize("argv, path", [
        (["analyze", "adir", "--trials", 1000, "--out", "o"], "adir"),
        (["simulate", "--config", "adir", "--out", "s.tags"], "adir"),
        (["calibrate-heating", "--target", "adir", "--out", "fit.json"], "adir"),
        (["simulate", "--trials", 1000, "--out", "adir"], "adir"),
        (["thermometry", "--out", "adir"], "adir"),
        (["analyze", "run.tags", "--trials", 1000, "--out", "afile"], "afile"),
    ], ids=["analyze-stream", "simulate-config", "calibrate-target", "simulate-out",
            "thermometry-out", "analyze-out"])
    def test_unopenable_path_is_4(self, tmp_path, monkeypatch, capsys, argv, path):
        # a directory where a file belongs, or a file where a directory
        # belongs: permission bits would not stop a test run as root
        monkeypatch.chdir(tmp_path)
        assert run(["simulate", "--trials", 1000, "--out", "run.tags"]) == 0
        Path("adir").mkdir()
        Path("afile").write_text("")
        capsys.readouterr()
        assert run(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and path in err
        assert "Traceback" not in err

    def test_failed_sampler_worker_is_4(self, tmp_path, monkeypatch, capsys):
        # a fork copies the patch, so only the forked worker's chunks fail
        from phononherald import protocol
        parent, chunk = os.getpid(), protocol._sample_chunk

        def failing(*args):
            if os.getpid() != parent:
                raise MemoryError("worker out of memory")
            return chunk(*args)

        monkeypatch.setattr(protocol, "_sample_chunk", failing)
        monkeypatch.setattr(protocol, "SAMPLE_CHUNK", 7919)
        monkeypatch.setattr(protocol.os, "cpu_count", lambda: 2)
        assert run(["simulate", "--trials", 50_000, "--threads", 2,
                    "--out", tmp_path / "s.tags"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O error: sampler worker ")
        assert "Traceback" not in err
        with pytest.raises(ChildProcessError):  # no child, running or zombie
            os.waitpid(-1, os.WNOHANG)

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


def _every_stage(d, fast, target):
    """Every subcommand and figure, each with outputs under its own missing
    ``new/nested`` directory in ``d``, in an order that runs simulate before
    analyze: name -> (argv, first output, manifest inputs, config,
    overrides)."""
    default, fast_cfg = config_mod.default_config(), config_mod.load(fast)
    out = {name: d / name / "new" / "nested" for name in
           ("simulate", "analyze", "thermometry", "calibrate-heating", "fig2",
            "fig3b", "fig3c", "m3")}
    stream = out["simulate"] / "run.tags"

    def figure(name, first, cfg, *extra, **overrides):
        return (["reproduce", "--figure", name, *extra, "--out", out[name]],
                out[name] / first, [str(fast) if "--config" in extra else "<defaults>"],
                cfg, {"figure": name, **overrides})

    return {
        "simulate": (["simulate", "--config", fast, "--out", stream], stream,
                     [str(fast)], fast_cfg, {}),
        "analyze": (["analyze", stream, "--config", fast, "--delta-n", 2,
                     "--out", out["analyze"]], out["analyze"] / "correlations.csv",
                    [str(stream)], fast_cfg, {"delta_n": 2}),
        "thermometry": (["thermometry", "--pulses", 200_000, "--out",
                         out["thermometry"] / "t.json"], out["thermometry"] / "t.json",
                        ["<defaults>"], default, {"pulses": 200_000}),
        "calibrate-heating": (["calibrate-heating", "--target", target, "--out",
                               out["calibrate-heating"] / "fit.json"],
                              out["calibrate-heating"] / "fit.json",
                              [str(target)], default, {}),
        "fig2": figure("fig2", "fig2_thermometry.csv", default.replace(
            protocol=dataclasses.replace(default.protocol, trials=200_000)),
            "--trials", 200_000, trials=200_000),
        "fig3b": figure("fig3b", "fig3b_cross_correlation.csv", fast_cfg,
                        "--config", fast),
        "fig3c": figure("fig3c", "fig3c_correlation_decay.csv", default),
        "m3": figure("m3", "m3_pump_probe.csv", default),
    }


def _target(d):
    """A calibration target in ``d``: the model curve at a_heat = 0.3."""
    from phononherald import calibrate
    target = d / "target.csv"
    curve = calibrate.model_curve(config_mod.default_config(), (100.0, 700.0), 0.3)
    target.write_text("delta_t_ns,g2_om\n" + "".join(
        f"{dt},{g}\n" for dt, g in zip((100.0, 700.0), curve)))
    return target


# SHA-256 of each output of the stages that
# TestSimulateAnalyze.test_golden_analysis_outputs leaves out, at the sizes of
# _every_stage
STAGE_DIGESTS = {
    "thermometry": {
        "t.json": "6707267ae6acbb16f60fb1ec3cf08f1b4fdabe0afc0283e46205b30e4af305f4"},
    "calibrate-heating": {
        "fit.json": "a9c8880f17573bae8eb4688a0953db5a5c1e7656f959ba4028f51cd921c739f4"},
    "fig2": {"fig2_thermometry.csv":
             "45860493f94fab1438cc60f569bb9ceaac64822d3965b2b8b082105fe62aaabd"},
    "fig3b": {"fig3b_cross_correlation.csv":
              "ca843bf3fe209f15a161e86092f252ba97e9ed8637c06761e7762d6909d4e370"},
    "fig3c": {"fig3c_correlation_decay.csv":
              "c00d2eeec165e5450affb40d01b9ce3a3d634b856e8aa1222b3f3eab6b9f0c58"},
    "m3": {"m3_fits.json": "86cb53da0c6a0036c744bf19044da0a64714803629814d1fce881e37259696dc",
           "m3_pump_probe.csv":
           "26013d40722d702bcd6e194e02f285e66d1a02debb384c2d78d6a76dbc0087e9"},
}


class TestStageRunner:
    def test_every_stage_writes_into_missing_directories_with_its_manifest(
            self, tmp_path, fast_config_path):
        for name, (argv, first, inputs, cfg, overrides) in _every_stage(
                tmp_path, fast_config_path, _target(tmp_path)).items():
            assert run(argv) == 0, name
            manifest = json.loads(
                first.with_name(first.name + ".manifest.json").read_text())
            assert manifest["subcommand"] == argv[0], name
            assert manifest["inputs"] == inputs, name
            assert manifest["outputs"][0] == str(first), name
            # the outputs and the manifest, and nothing else
            assert sorted(p.name for p in first.parent.iterdir()) == sorted(
                [Path(p).name for p in manifest["outputs"]]
                + [first.name + ".manifest.json"]), name
            assert manifest["config_hash"] == f"{cfg.config_hash():016x}", name
            assert manifest["overrides"] == overrides, name

    def test_a_rerun_writes_the_same_bytes_to_new_files(self, tmp_path, fast_config_path):
        # every output and manifest is unlinked, not truncated: a hard link
        # to it keeps the first run's bytes, and a symlink at an output path
        # becomes a regular file while its target stays as it was
        stages = _every_stage(tmp_path, fast_config_path, _target(tmp_path))
        written = {}
        for name, (argv, first, *_) in stages.items():
            assert run(argv) == 0, name
            manifest = first.with_name(first.name + ".manifest.json")
            outputs = [Path(p) for p in json.loads(manifest.read_text())["outputs"]]
            written[name] = {path: path.read_bytes() for path in [*outputs, manifest]}
        links, decoy = tmp_path / "links", tmp_path / "decoy"
        links.mkdir()
        decoy.write_bytes(b"not an output")
        for name, files in written.items():
            for k, path in enumerate(files):
                os.link(path, links / f"{name}-{k}")
            first = next(iter(files))
            first.unlink()
            first.symlink_to(decoy)
        for name, (argv, *_) in stages.items():
            assert run(argv) == 0, name
        for name, files in written.items():
            for k, (path, data) in enumerate(files.items()):
                link = links / f"{name}-{k}"
                assert not path.is_symlink(), path
                assert link.read_bytes() == data, path
                assert not os.path.samefile(link, path), path
                if not path.name.endswith(".manifest.json"):  # a manifest holds its time
                    assert path.read_bytes() == data, path
        assert decoy.read_bytes() == b"not an output"

    def test_a_failed_rerun_keeps_the_old_files(self, tmp_path, fast_config_path, capsys):
        stages = _every_stage(tmp_path, fast_config_path, _target(tmp_path))
        for name in ("simulate", "analyze"):
            assert run(stages[name][0]) == 0
        out = stages["analyze"][1].parent
        before = {path: (path.stat().st_ino, path.read_bytes()) for path in out.iterdir()}
        # another trial count is another config hash than the stream's
        assert run([*stages["analyze"][0], "--trials", 1000]) == 4
        assert "stream/config drift" in capsys.readouterr().err
        assert {path: (path.stat().st_ino, path.read_bytes())
                for path in out.iterdir()} == before

    @pytest.mark.parametrize("name, digests", STAGE_DIGESTS.items(), ids=list(STAGE_DIGESTS))
    def test_golden_stage_outputs(self, tmp_path, fast_config_path, name, digests):
        argv, first, *_ = _every_stage(tmp_path, fast_config_path, _target(tmp_path))[name]
        assert run(argv) == 0
        assert {path: hashlib.sha256((first.parent / path).read_bytes()).hexdigest()
                for path in digests} == digests

    def test_manifest_records_only_the_flags_given(self, tmp_path, fast_config_path):
        # a flag left at its default is no override; one given is recorded,
        # even with its default value
        def overrides(first):
            return json.loads(first.with_name(first.name + ".manifest.json")
                              .read_text())["overrides"]

        common = ["--config", fast_config_path, "--trials", 1000]
        stream = tmp_path / "s.tags"
        for extra, expected in (([], {"trials": 1000}),
                                (["--threads", 1], {"trials": 1000, "threads": 1})):
            assert run(["simulate", "--out", stream, *common, *extra]) == 0
            assert overrides(stream) == expected
        for extra, expected in (([], {"trials": 1000}),
                                (["--delta-n", 0], {"trials": 1000, "delta_n": 0})):
            out = tmp_path / f"analysis{len(extra)}"
            assert run(["analyze", stream, "--out", out, *common, *extra]) == 0
            assert overrides(out / "correlations.csv") == expected
        therm = tmp_path / "t.json"
        assert run(["thermometry", "--out", therm]) == 0
        assert overrides(therm) == {}

    def test_failed_stage_creates_no_directory(self, tmp_path, capsys):
        # the rate-asymmetry pole of 2 pulses is found before any output
        assert run(["thermometry", "--pulses", 2,
                    "--out", tmp_path / "new" / "nested" / "t.json"]) == 5
        assert "degenerate statistics" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()


class TestThermometryCommand:
    def test_report_written(self, tmp_path):
        out = tmp_path / "therm.json"
        assert run(["thermometry", "--pulses", 200_000, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["ideal_asymmetry"] > 40
        assert report["n_th"]["value"] >= 0.0

    def test_manifest_records_pulses(self, tmp_path):
        out = tmp_path / "therm.json"
        assert run(["thermometry", "--pulses", 20_000, "--out", out]) == 0
        manifest = json.loads((tmp_path / "therm.json.manifest.json").read_text())
        assert manifest["overrides"]["pulses"] == 20_000

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

        report = json.loads(out.read_text(), parse_constant=reject_constant)
        assert report["ideal_asymmetry"] is None

    def test_bad_pulses_is_2(self, tmp_path):
        assert run(["thermometry", "--pulses", 0,
                    "--out", tmp_path / "t.json"]) == 2

    @pytest.mark.parametrize("argv", [
        ["thermometry", "--pulses", 10 ** 23],
        ["thermometry", "--pulses", 2 ** 62],
        ["thermometry", "--pulses", config_mod.MAX_TRIALS + 2],
        ["reproduce", "--figure", "fig2", "--trials", 2 ** 62],
    ], ids=["thermometry-1e23", "thermometry-2**62", "thermometry-limit+2", "fig2-2**62"])
    def test_pulses_past_the_counter_limit_are_2(self, tmp_path, capsys, argv):
        # 2 x pulses per colour above MAX_TRIALS would reuse trial counters:
        # refused at once, naming the limit, instead of running until killed
        assert run(argv + ["--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(config_mod.MAX_TRIALS) in err
        assert "Traceback" not in err

    def test_pulse_limit_is_inclusive(self, tmp_path, monkeypatch):
        # MAX_TRIALS + 1 pulses are 2 x 2**60 per colour, whose last counter
        # is trial 2**61 - 1: accepted, and handed on as given
        seen = []

        def counted(cfg, pulses):
            seen.append(pulses)
            return protocol.ThermometryResult(pulses // 2, 9, 1, 0.0, None)

        monkeypatch.setattr(cli.protocol, "simulate_thermometry", counted)
        assert run(["thermometry", "--pulses", config_mod.MAX_TRIALS + 1,
                    "--out", tmp_path / "t.json"]) == 0
        assert seen == [config_mod.MAX_TRIALS + 1]


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

    def test_fig2_and_thermometry_write_one_report(self, tmp_path):
        # at one seed and pulse count both writers give the same floats
        assert run(["thermometry", "--seed", 11, "--pulses", 200_000,
                    "--out", tmp_path / "t.json"]) == 0
        assert run(["reproduce", "--figure", "fig2", "--seed", 11, "--trials", 200_000,
                    "--out", tmp_path / "figs"]) == 0
        report = json.loads((tmp_path / "t.json").read_text())
        header, row = (tmp_path / "figs" / "fig2_thermometry.csv").read_text().splitlines()
        n_th = report["n_th"]
        assert dict(zip(header.split(","), map(float, row.split(",")))) == {
            "rate_blue": report["rate_blue"], "rate_red": report["rate_red"],
            "asymmetry_corrected": report["rate_blue_corrected"] / report["rate_red_corrected"],
            "ideal_asymmetry": report["ideal_asymmetry"], "n_th": n_th["value"],
            "n_th_ci_minus": n_th["sigma_minus"], "n_th_ci_plus": n_th["sigma_plus"]}

    def test_m3_fits(self, tmp_path):
        out = tmp_path / "figs"
        assert run(["reproduce", "--figure", "m3", "--out", out]) == 0
        fits = json.loads((out / "m3_fits.json").read_text())
        assert fits["decay_time_constant_us"] == pytest.approx(34.4, rel=0.05)
        assert fits["rise_time_constant_us"] == pytest.approx(0.37, rel=0.1)

    def test_m3_flat_curves_are_strict_json(self, tmp_path, monkeypatch):
        # without heating both curves are flat and have no time constant:
        # it is written as null, not as the non-standard Infinity
        monkeypatch.chdir(tmp_path)
        Path("cold.json").write_text('{"heating": {"a_heat": 0.0}}')
        assert run(["reproduce", "--figure", "m3", "--config", "cold.json",
                    "--out", "figs"]) == 0
        fits = json.loads(Path("figs/m3_fits.json").read_text(),
                          parse_constant=reject_constant)
        assert fits["decay_time_constant_us"] is None
        assert fits["rise_time_constant_us"] is None

    @pytest.mark.parametrize("config,argv,output", [
        ('{"chain": {"eta_qe1": 0.0, "dark_rate_hz": 0.0}}',
         ["reproduce", "--figure", "fig3c", "--out", "figs"],
         "figs/fig3c_correlation_decay.csv"),
        ('{"protocol": {"p_pair": 0.0}, "chain": {"dark_rate_hz": 0.0}}',
         ["reproduce", "--figure", "fig3c", "--out", "figs"],
         "figs/fig3c_correlation_decay.csv"),
        ('{"protocol": {"p_pair": 0.0}, "chain": {"dark_rate_hz": 0.0}}',
         ["calibrate-heating", "--target", "target.csv", "--out", "fit.json"],
         "fit.json"),
    ], ids=["dead-detector-fig3c", "no-pairs-fig3c", "no-pairs-calibrate"])
    def test_zero_model_single_is_5(self, tmp_path, monkeypatch, capsys, config,
                                    argv, output):
        # a model g2 with a zero single is undefined, as a data g2 is
        monkeypatch.chdir(tmp_path)
        Path("bad.json").write_text(config)
        Path("target.csv").write_text("delta_t_ns,g2_om\n100,8.0\n")
        assert run(argv + ["--config", "bad.json"]) == 5
        err = capsys.readouterr().err
        assert "degenerate statistics: zero single-event probability" in err
        assert "Traceback" not in err
        assert not Path(output).exists()


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
        "delta_t_ns,g2_om\n-100,8.0\n",
    ], ids=["no-g2_om-column", "short-row", "nan-target", "negative-delay"])
    def test_malformed_target_is_2(self, tmp_path, capsys, text):
        target = tmp_path / "target.csv"
        target.write_text(text)
        out = tmp_path / "fit.json"
        assert run(["calibrate-heating", "--target", target, "--out", out]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err

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


# each number's edges: 0 and the largest valid value (dark counts: a 0.99
# dark probability in the default 55 ns read window), the shortest windows,
# a zero delay alone and next to a 1 s one
_EDGES = {
    ("protocol", "p_pair"): (0.0, 1.0),
    ("protocol", "eps_read"): (0.0, 1.0),
    ("heating", "n_base"): (0.0, config_mod.MAX_OCCUPATION),
    ("heating", "a_heat"): (0.0, config_mod.MAX_OCCUPATION),
    ("heating", "read_heat"): (0.0, config_mod.MAX_OCCUPATION),
    ("chain", "dark_rate_hz"): (0.0, 1.8e7),
    ("chain", "eta_qe1"): (0.0, 1.0),
    ("chain", "eta_qe2"): (0.0, 1.0),
    ("chain", "leak_fraction"): (0.0, 0.999999),
    ("chain", "window_write_ns"): (config_mod.MIN_WINDOW_NS,),
    ("chain", "window_read_ns"): (config_mod.MIN_WINDOW_NS,),
    ("protocol", "delta_t_list_ns"): ((0.0,), (0.0, 1e9)),
}
# lossless detectors without background and a pair per pulse: the one blue
# pulse clicks and the red one cannot (n_base = 0), so every blue pulse clicks
_SATURATED_BLUE = {
    ("chain", "dark_rate_hz"): 0.0, ("chain", "leak_fraction"): 0.0,
    ("chain", "eta_fc"): 1.0, ("chain", "eta_c"): 1.0, ("chain", "eta_qe1"): 1.0,
    ("chain", "eta_qe2"): 1.0, ("chain", "eta_path1"): 0.5, ("chain", "eta_path2"): 0.5,
    ("protocol", "p_pair"): 1.0, ("heating", "n_base"): 0.0,
}
_TARGETS = ("100,8.0\n", "100,8.0\n700,6.0\n", "0,1.0\n1e9,1.0\n", "-100,8.0\n")


def _stages(d, pulses):
    """Every subcommand, small, with its outputs under directory ``d``;
    thermometry and fig2 take ``pulses`` pulses."""
    return (
        ["simulate", "--trials", 3000, "--out", d / "s.tags"],
        ["analyze", d / "s.tags", "--trials", 3000, "--delta-n", 2,
         "--out", d / "analysis"],
        ["thermometry", "--pulses", pulses, "--out", d / "thermometry.json"],
        ["reproduce", "--figure", "fig2", "--trials", pulses, "--out", d / "figs"],
        ["reproduce", "--figure", "fig3b", "--trials", 3000, "--out", d / "figs"],
        ["reproduce", "--figure", "fig3c", "--out", d / "figs"],
        ["reproduce", "--figure", "m3", "--out", d / "figs"],
        ["calibrate-heating", "--target", d / "target.csv", "--out", d / "fit.json"],
    )


@settings(max_examples=24, derandomize=True, deadline=None)
@given(st.fixed_dictionaries({}, optional={
    path: st.sampled_from(values) for path, values in _EDGES.items()}),
    st.sampled_from(_TARGETS), st.just(4000))
@example({("chain", "eta_qe1"): 0.0, ("chain", "dark_rate_hz"): 0.0}, _TARGETS[0], 4000)
@example({("protocol", "p_pair"): 0.0, ("chain", "dark_rate_hz"): 0.0}, _TARGETS[0], 4000)
@example({}, _TARGETS[-1], 4000)
@example({("heating", "a_heat"): 0.0}, _TARGETS[0], 4000)
@example(_SATURATED_BLUE, _TARGETS[0], 2)
# the leak saturates both windows: every READ trial is a coincidence
@example({("chain", "leak_fraction"): 0.999999}, _TARGETS[0], 4000)
# windows that end past 2**53 ps
@example({("protocol", "delta_t_list_ns"): (1e300,)}, _TARGETS[0], 4000)
@example({("chain", "window_read_ns"): 1e18, ("chain", "dark_rate_hz"): 0.0},
         _TARGETS[0], 4000)
def test_every_stage_keeps_the_exit_code_contract(edges, target, pulses):
    # in process, on edge-value configs: every subcommand exits with a
    # documented code, lets no exception escape and writes strict JSON
    config = {}
    for (section, name), value in edges.items():
        config.setdefault(section, {})[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "config.json").write_text(json.dumps(config))
        (tmp / "target.csv").write_text("delta_t_ns,g2_om\n" + target)
        for argv in _stages(tmp, pulses):
            argv += ["--config", tmp / "config.json"]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = run(argv)
                except SystemExit as exc:  # argparse's usage error only
                    code = exc.code
                    assert code == 2, argv
            assert code in (0, 2, 3, 4, 5), (argv, code, err.getvalue())
            assert "Traceback" not in err.getvalue()
        for path in tmp.rglob("*.json"):
            json.loads(path.read_text(), parse_constant=reject_constant)
