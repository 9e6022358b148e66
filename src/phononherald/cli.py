"""Command-line entry point.

Subcommands: simulate, analyze, thermometry, reproduce, calibrate-heating.
Exit codes: 0 success, 2 config error, 3 physics error (unreachable
calibration target), 4 data-format error, 5 degenerate statistics (e.g. an
empty stream, a rate-asymmetry pole or a failed fit).
Set PHONONHERALD_LOG=debug|info|warning for verbosity.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import platform
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from . import __version__, analysis, calibrate, config as config_mod, protocol, tags

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_FORMAT = 4
EXIT_DEGENERATE = 5

FIG3C_DELAYS = (100.0, 200.0, 400.0, 700.0, 1000.0, 1500.0)

log = logging.getLogger("phononherald")


def _setup_logging():
    level = os.environ.get("PHONONHERALD_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(args) -> config_mod.ExperimentConfig:
    cfg = config_mod.load(args.config) if args.config else config_mod.default_config()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    proto = cfg.protocol
    if getattr(args, "trials", None) is not None:
        proto = dataclasses.replace(proto, trials=args.trials)
    if getattr(args, "delta_t_ns", None):
        proto = dataclasses.replace(
            proto, delta_t_list_ns=tuple(args.delta_t_ns))
    if proto is not cfg.protocol:
        overrides["protocol"] = proto
    if overrides:
        cfg = cfg.replace(**overrides)
    config_mod.check(cfg)
    return cfg


def _manifest(cfg, subcommand, args, inputs, outputs) -> dict:
    return {
        "tool": "phononherald",
        "version": __version__,
        "subcommand": subcommand,
        "config_hash": f"{cfg.config_hash():016x}",
        "seed": cfg.seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": metadata.version("scipy")},  # no slow scipy import
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "overrides": {k: v for k, v in vars(args).items()
                      if k in ("seed", "trials", "delta_t_ns", "read_window_ns",
                               "delta_n", "threads", "figure") and v is not None},
    }


def _write_manifest(manifest: dict, out_path: Path):
    path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    tables = [protocol.build_outcome_table(cfg, dt)
              for dt in cfg.protocol.delta_t_list_ns]
    stream = protocol.sample_trials(cfg, tables, threads=args.threads)
    tags.write_tagstream(stream, out)
    _write_manifest(_manifest(cfg, "simulate", args, [args.config or "<defaults>"],
                              [out]), out)
    log.info("wrote %d records for %d trials to %s",
             len(stream), stream.trial_count, out)
    return EXIT_OK


def _analyze_tables(trial_tables, delta_n_max):
    results = []
    for delta_t, table in trial_tables.items():
        entry = {"delta_t_ns": delta_t, "counters": table.counters()}
        try:
            cross = analysis.g2_cross_estimate(table, 0)
            auto_w = analysis.g2_auto_estimate(trial_tables, "WRITE")
            auto_r = analysis.g2_auto_estimate(trial_tables, "READ", delta_t)
            bound = analysis.classical_bound(auto_w, auto_r)
            verdict = analysis.cauchy_schwarz_test(cross, bound)
        except analysis.EstimatorError as exc:
            entry["error"] = str(exc)
            results.append(entry)
            continue
        entry.update(cross=cross, auto_write=auto_w, auto_read=auto_r,
                     bound=bound, verdict=verdict)
        if delta_n_max:
            offsets = list(range(1, delta_n_max + 1))
            entry["delta_n"] = {
                dn: analysis.g2_cross_estimate(table, dn) for dn in offsets}
            entry["delta_n_pooled"] = analysis.g2_cross_estimate(table, offsets)
        results.append(entry)
    return results


def _write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_analysis_outputs(results, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, summary = [], []
    for entry in results:
        item = {"delta_t_ns": entry["delta_t_ns"], "counters": entry["counters"]}
        if "error" in entry:
            rows.append([entry["delta_t_ns"]] + ["nan"] * 6 + ["false"])
            item["error"] = entry["error"]
        else:
            cross, bound = entry["cross"], entry["bound"]
            rows.append([entry["delta_t_ns"], cross.value, cross.sigma_minus,
                         cross.sigma_plus, bound.value, bound.sigma_minus,
                         bound.sigma_plus, str(entry["verdict"].violated).lower()])
            item["g2_om"] = cross.to_dict()
            item["g2_auto_write"] = entry["auto_write"].to_dict()
            item["g2_auto_read"] = entry["auto_read"].to_dict()
            item["classical_bound"] = bound.to_dict()
            item["cauchy_schwarz"] = entry["verdict"].to_dict()
            if "delta_n" in entry:
                item["delta_n"] = {str(dn): est.to_dict()
                                   for dn, est in entry["delta_n"].items()}
                item["delta_n_pooled"] = entry["delta_n_pooled"].to_dict()
        summary.append(item)
    csv_path = _write_csv(out_dir / "correlations.csv",
                          ["delta_t_ns", "g2_om", "ci_minus", "ci_plus", "bound",
                           "bound_ci_minus", "bound_ci_plus", "violated"], rows)
    json_path = out_dir / "summary.json"
    json_path.write_text(json.dumps(summary, indent=2) + "\n")
    return csv_path, json_path


def cmd_analyze(args) -> int:
    if args.delta_n < 0:
        raise config_mod.ConfigError(f"delta-n: {args.delta_n} must be >= 0")
    cfg = _load_config(args)
    stream = tags.read_tagstream(args.stream)
    if stream.config_hash != cfg.config_hash():
        raise tags.TagFormatError(
            f"stream config hash {stream.config_hash:016x} does not match "
            f"config {cfg.config_hash():016x} (stream/config drift)")
    trial_tables = analysis.tabulate(stream, cfg,
                                     read_window_ns=args.read_window_ns)
    results = _analyze_tables(trial_tables, args.delta_n)
    out_dir = Path(args.out)
    csv_path, json_path = _write_analysis_outputs(results, out_dir)
    _write_manifest(_manifest(cfg, "analyze", args, [args.stream],
                              [csv_path, json_path]), csv_path)
    if any("error" in entry for entry in results):
        log.warning("degenerate estimates flagged in %s", json_path)
        return EXIT_DEGENERATE
    return EXIT_OK


def _thermometry(cfg, pulses):
    if pulses <= 0:
        raise config_mod.ConfigError(f"pulses: {pulses} must be > 0")
    result = protocol.simulate_thermometry(cfg, pulses)
    return result, analysis.sideband_occupancy(
        result.clicks_red, result.clicks_blue, result.pulses_per_color,
        result.background_click_prob)


def cmd_thermometry(args) -> int:
    cfg = _load_config(args)
    result, occ = _thermometry(cfg, args.pulses)
    report = {
        "pulses_per_color": result.pulses_per_color,
        "rate_blue": result.rate_blue,
        "rate_red": result.rate_red,
        "rate_blue_corrected": result.rate_blue_corrected,
        "rate_red_corrected": result.rate_red_corrected,
        "ideal_asymmetry": result.ideal_asymmetry,
        "n_th": occ.to_dict(),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")
    _write_manifest(_manifest(cfg, "thermometry", args,
                              [args.config or "<defaults>"], [out]), out)
    return EXIT_OK


def _reproduce_fig2(cfg, args, out_dir: Path):
    result, occ = _thermometry(
        cfg, 1_000_000 if args.trials is None else args.trials)
    asym = (result.rate_blue_corrected / result.rate_red_corrected
            if result.rate_red_corrected > 0 else float("inf"))
    return [_write_csv(
        out_dir / "fig2_thermometry.csv",
        ["rate_blue", "rate_red", "asymmetry_corrected", "ideal_asymmetry",
         "n_th", "n_th_ci_minus", "n_th_ci_plus"],
        [[result.rate_blue, result.rate_red, asym, result.ideal_asymmetry,
          occ.value, occ.sigma_minus, occ.sigma_plus]])]


def _reproduce_fig3b(cfg, args, out_dir: Path):
    proto = dataclasses.replace(cfg.protocol, delta_t_list_ns=(100.0,))
    cfg = cfg.replace(protocol=proto)
    table = protocol.build_outcome_table(cfg, 100.0)
    stream = protocol.sample_trials(cfg, [table], threads=args.threads)
    trial_tables = analysis.tabulate(stream, cfg)
    entry = _analyze_tables(trial_tables, delta_n_max=10)[0]
    if "error" in entry:
        raise analysis.EstimatorError(f"fig3b at 100 ns: {entry['error']}")
    cross, bound = entry["cross"], entry["bound"]
    rows = [[0, cross.value, cross.sigma_minus, cross.sigma_plus,
             bound.value, bound.sigma_minus, bound.sigma_plus]]
    rows += [[dn, est.value, est.sigma_minus, est.sigma_plus, "", "", ""]
             for dn, est in entry["delta_n"].items()]
    return [_write_csv(out_dir / "fig3b_cross_correlation.csv",
                       ["delta_n", "g2_om", "ci_minus", "ci_plus",
                        "bound", "bound_ci_minus", "bound_ci_plus"], rows)]


def _reproduce_fig3c(cfg, args, out_dir: Path):
    tables = [protocol.build_outcome_table(cfg, dt) for dt in FIG3C_DELAYS]
    return [_write_csv(out_dir / "fig3c_correlation_decay.csv",
                       ["delta_t_ns", "g2_om_model", "bound_model"],
                       [[t.delta_t_ns, t.g2_cross_implied(),
                         t.classical_bound_implied()] for t in tables])]


def _reproduce_m3(cfg, args, out_dir: Path):
    # pump pulses in the mechanical-response measurement carried 5x the
    # write energy; scale the calibrated write-pulse heating accordingly
    pump_amplitude = 5.0 * cfg.heating.a_heat
    long_grid = np.linspace(2.0, 150.0, 60)
    short_grid = np.linspace(0.02, 1.0, 40)
    c_long = protocol.simulate_pump_probe(cfg, pump_amplitude, long_grid)
    c_short = protocol.simulate_pump_probe(cfg, pump_amplitude, short_grid)
    path = _write_csv(out_dir / "m3_pump_probe.csv",
                      ["series", "delta_t_us", "count_rate"],
                      [["long", t, c] for t, c in zip(long_grid, c_long)]
                      + [["short", t, c] for t, c in zip(short_grid, c_short)])
    decay = analysis.fit_exponential(long_grid, c_long, "decay")
    rise = analysis.fit_exponential(short_grid, c_short, "saturating-rise")
    fit_path = out_dir / "m3_fits.json"
    fit_path.write_text(json.dumps({
        "decay_time_constant_us": decay.time_constant,
        "rise_time_constant_us": rise.time_constant,
        "decay_rms_residual": decay.rms_residual,
        "rise_rms_residual": rise.rms_residual,
    }, indent=2) + "\n")
    return [path, fit_path]


_FIGURES = {
    "fig2": _reproduce_fig2,
    "fig3b": _reproduce_fig3b,
    "fig3c": _reproduce_fig3c,
    "m3": _reproduce_m3,
}


def cmd_reproduce(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = _FIGURES[args.figure](cfg, args, out_dir)
    _write_manifest(_manifest(cfg, "reproduce", args,
                              [args.config or "<defaults>"], outputs), outputs[0])
    return EXIT_OK


def cmd_calibrate_heating(args) -> int:
    cfg = _load_config(args)
    try:
        with open(args.target, newline="") as fh:
            reader = csv.DictReader(fh)
            targets = [(float(row["delta_t_ns"]), float(row["g2_om"])) for row in reader]
    except (KeyError, TypeError, ValueError) as exc:  # UnicodeDecodeError too
        raise config_mod.ConfigError(
            f"{args.target} line {reader.line_num}: need numeric delta_t_ns and "
            f"g2_om columns ({exc})") from exc
    a_heat = calibrate.calibrate_a_heat(cfg, targets)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"a_heat": a_heat}, indent=2) + "\n")
    _write_manifest(_manifest(cfg, "calibrate-heating", args,
                              [args.target], [out]), out)
    return EXIT_OK


def _thread_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phononherald",
        description="Pulsed photon-phonon correlation simulation and analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, trials=True):
        p.add_argument("--config", help="JSON config path (defaults shipped)")
        if seed:
            p.add_argument("--seed", type=int, help="override RNG seed")
        if trials:
            p.add_argument("--trials", type=int, help="override trials per setting")

    p = sub.add_parser("simulate", help="sample a tag stream")
    common(p)
    p.add_argument("--out", required=True, help="output tag-stream path")
    p.add_argument("--delta-t-ns", type=float, nargs="+",
                   help="override write->read delays (ns)")
    p.add_argument("--threads", type=_thread_count, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="correlation analysis of a tag stream")
    common(p)
    p.add_argument("stream", help="tag-stream file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--delta-t-ns", type=float, nargs="+",
                   help="write->read delays the stream was simulated with")
    p.add_argument("--read-window-ns", type=float,
                   help="trim the read evaluation window (e.g. 30)")
    p.add_argument("--delta-n", type=int, default=0,
                   help="also estimate g2 for trial offsets 1..N")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("thermometry", help="alternating-pulse sideband thermometry")
    common(p, trials=False)
    p.add_argument("--pulses", type=int, default=1_000_000)
    p.add_argument("--out", required=True, help="output JSON report")
    p.set_defaults(func=cmd_thermometry)

    p = sub.add_parser("reproduce", help="regenerate figure data series")
    common(p)
    p.add_argument("--figure", required=True, choices=sorted(_FIGURES))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threads", type=_thread_count, default=1)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("calibrate-heating", help="fit the heating amplitude")
    common(p, seed=False, trials=False)
    p.add_argument("--target", required=True,
                   help="CSV with delta_t_ns,g2_om target curve")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_calibrate_heating)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except config_mod.ConfigError as exc:
        log.error("config error: %s", exc)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except calibrate.CalibrationError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except (analysis.EstimatorError, analysis.FitError) as exc:
        print(f"degenerate statistics: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except tags.TagFormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except FileNotFoundError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
