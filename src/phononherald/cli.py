"""Command-line entry point.

Subcommands: simulate, analyze, thermometry, reproduce, calibrate-heating.
``main`` loads the config, runs the subcommand, which only computes and
returns its outputs, writes them (creating missing parent directories) and
the run manifest beside the first one; a stage that fails writes nothing.
``--out`` names a file for simulate, thermometry and calibrate-heating, and
a directory for analyze and reproduce.

Exit codes: 0 success, 2 config error, 3 physics error (unreachable
calibration target), 4 data-format or I/O error, 5 degenerate statistics
(e.g. an empty stream, a rate-asymmetry pole, a failed fit or a --delta-n
of at least the trials per setting); each failure prints one stderr line.
Set PHONONHERALD_LOG=debug|info|warning for verbosity. A stage imports
``analysis`` and ``calibrate`` only if it uses them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, config as config_mod, protocol, tags

EXIT_OK, EXIT_CONFIG, EXIT_PHYSICS, EXIT_FORMAT, EXIT_DEGENERATE = 0, 2, 3, 4, 5

# exception class -> exit code and the prefix of its one stderr line; an
# exception takes the entry of the nearest class in its MRO
_FAILURES = {
    config_mod.ConfigError: (EXIT_CONFIG, "config error"),
    protocol.CalibrationError: (EXIT_PHYSICS, "physics error"),
    protocol.EstimatorError: (EXIT_DEGENERATE, "degenerate statistics"),  # a FitError too
    tags.TagFormatError: (EXIT_FORMAT, "data format error"),
    OSError: (EXIT_FORMAT, "I/O error"),
}

FIG3C_DELAYS = (100.0, 200.0, 400.0, 700.0, 1000.0, 1500.0)

log = logging.getLogger("phononherald")


def _load_config(args) -> config_mod.ExperimentConfig:
    cfg = config_mod.load(args.config) if args.config else config_mod.default_config()
    proto = cfg.protocol
    if getattr(args, "trials", None) is not None:
        proto = dataclasses.replace(proto, trials=args.trials)
    if getattr(args, "delta_t_ns", None):
        proto = dataclasses.replace(
            proto, delta_t_list_ns=tuple(args.delta_t_ns))
    seed = getattr(args, "seed", None)
    return cfg.replace(protocol=proto, seed=cfg.seed if seed is None else seed)


def _write_manifest(cfg, args, outputs):
    """The run manifest, beside the first output."""
    source = (getattr(args, "stream", None) or getattr(args, "target", None)
              or args.config or "<defaults>")
    manifest = {
        "tool": "phononherald",
        "version": __version__,
        "subcommand": args.command,
        "config_hash": f"{cfg.config_hash():016x}",
        "seed": cfg.seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__},
        "inputs": [str(source)],
        "outputs": [str(p) for p in outputs],
        "overrides": {k: v for k, v in vars(args).items()
                      if k in ("seed", "trials", "delta_t_ns", "read_window_ns",
                               "delta_n", "threads", "figure", "pulses")
                      and v is not None},
    }
    path = outputs[0].with_suffix(outputs[0].suffix + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _csv(header, rows) -> str:
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    return text.getvalue()


def _json(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def cmd_simulate(cfg, args):
    tables = [protocol.build_outcome_table(cfg, dt)
              for dt in cfg.protocol.delta_t_list_ns]
    stream = protocol.sample_trials(cfg, tables, threads=args.threads or 1)
    log.info("sampled %d records in %d trials", len(stream), stream.trial_count)
    return {Path(args.out): lambda path: tags.write_tagstream(stream, path)}, EXIT_OK


def _estimate(entry, key, fn, *args):
    """entry[key] = fn(*args), or the first undefined one's message as entry["error"]."""
    try:
        entry[key] = fn(*args)
    except protocol.EstimatorError as exc:
        entry.setdefault("error", str(exc))


def _analyze_stream(stream, cfg, read_window_ns, delta_n_max):
    """Each setting's counters and every estimate its counts define, from one interval solve."""
    from . import analysis
    trial_tables = analysis.tabulate(stream, cfg, read_window_ns=read_window_ns)
    rows = {dt: table.pattern_counts() for dt, table in trial_tables.items()}
    trials = cfg.protocol.trials
    far = delta_n_max >= trials  # no offset >= T leaves a trial pair
    write = {}  # the WRITE autocorrelation pools every setting: estimated once
    _estimate(write, "g2_auto_write", analysis.g2_auto_estimate, sum(rows.values()),
              trials * len(rows), "WRITE")
    entries = {}
    for delta_t, table in trial_tables.items():
        counters = {"T": trials, **{f"N_{name}": int(rows[delta_t][mask].sum())
                                    for name, mask in protocol.MASKS.items()}}
        entry = entries[delta_t] = {"delta_t_ns": delta_t, "counters": counters}
        swept = table.cross_coincidences(0 if far else delta_n_max).tolist()
        _estimate(entry, "cross", analysis.g2_cross_estimate, rows[delta_t], trials, swept)
        entry.update(entry.pop("cross", {}))
        for key, value in write.items():  # the estimate or its error
            entry.setdefault(key, value)
        _estimate(entry, "g2_auto_read", analysis.g2_auto_estimate, rows[delta_t], trials, "READ")
        if "g2_auto_write" in entry and "g2_auto_read" in entry:
            _estimate(entry, "classical_bound", analysis.classical_bound,
                      entry["g2_auto_write"], entry["g2_auto_read"])
    entries = list(analysis.solve(entries).values())
    for entry in entries:
        if "g2_om" in entry and "classical_bound" in entry:
            entry["cauchy_schwarz"] = analysis.cauchy_schwarz_test(
                entry["g2_om"], entry["classical_bound"])
        if far:
            entry.setdefault("error", f"offset {trials} leaves no trial pairs")
        for key in ("delta_n", "delta_n_pooled", "error"):
            if key in entry:
                entry[key] = entry.pop(key)
    return entries


def _plain(value):
    """A summary.json value: estimates and verdicts as the dicts of their fields."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return vars(value) if dataclasses.is_dataclass(value) else value


def _interval(est):
    return [est.value, est.sigma_minus, est.sigma_plus]


def cmd_analyze(cfg, args):
    if (args.delta_n or 0) < 0:
        raise config_mod.ConfigError(f"delta-n: {args.delta_n} must be >= 0")
    stream = tags.read_tagstream(args.stream)
    if stream.config_hash != cfg.config_hash():
        raise tags.TagFormatError(
            f"stream config hash {stream.config_hash:016x} does not match "
            f"config {cfg.config_hash():016x} (stream/config drift)")
    rows, summary = [], []
    for entry in _analyze_stream(stream, cfg, args.read_window_ns, args.delta_n or 0):
        if "error" in entry:
            rows.append([entry["delta_t_ns"]] + ["nan"] * 6 + ["false"])
        else:
            rows.append([entry["delta_t_ns"], *_interval(entry["g2_om"]),
                         *_interval(entry["classical_bound"]),
                         str(entry["cauchy_schwarz"].violated).lower()])
        summary.append(_plain(entry))
    out = Path(args.out)
    outputs = {
        out / "correlations.csv": _csv(
            ["delta_t_ns", "g2_om", "ci_minus", "ci_plus", "bound",
             "bound_ci_minus", "bound_ci_plus", "violated"], rows),
        out / "summary.json": _json(summary),
    }
    if any("error" in item for item in summary):
        log.warning("degenerate estimates flagged in %s", out / "summary.json")
        return outputs, EXIT_DEGENERATE
    return outputs, EXIT_OK


def _thermometry(cfg, pulses):
    from . import analysis
    result = protocol.simulate_thermometry(cfg, 1_000_000 if pulses is None else pulses)
    return result, analysis.sideband_occupancy(
        result.clicks_red, result.clicks_blue, result.pulses_per_color,
        result.background_click_prob)


def cmd_thermometry(cfg, args):
    result, occ = _thermometry(cfg, args.pulses)
    return {Path(args.out): _json({
        "pulses_per_color": result.pulses_per_color,
        "rate_blue": result.rate_blue,
        "rate_red": result.rate_red,
        "rate_blue_corrected": result.rate_blue_corrected,
        "rate_red_corrected": result.rate_red_corrected,
        "ideal_asymmetry": result.ideal_asymmetry,
        "n_th": vars(occ),
    })}, EXIT_OK


def _reproduce_fig2(cfg, args):
    result, occ = _thermometry(cfg, args.trials)
    asym = (result.rate_blue_corrected / result.rate_red_corrected
            if result.rate_red_corrected > 0 else float("inf"))
    return {"fig2_thermometry.csv": _csv(
        ["rate_blue", "rate_red", "asymmetry_corrected", "ideal_asymmetry",
         "n_th", "n_th_ci_minus", "n_th_ci_plus"],
        [[result.rate_blue, result.rate_red, asym, result.ideal_asymmetry,
          *_interval(occ)]])}


def _reproduce_fig3b(cfg, args):
    proto = dataclasses.replace(cfg.protocol, delta_t_list_ns=(100.0,))
    cfg = cfg.replace(protocol=proto)
    table = protocol.build_outcome_table(cfg, 100.0)
    stream = protocol.sample_trials(cfg, [table], threads=args.threads or 1)
    entry = _analyze_stream(stream, cfg, None, delta_n_max=10)[0]
    if "error" in entry:
        raise protocol.EstimatorError(f"fig3b at 100 ns: {entry['error']}")
    rows = [[0, *_interval(entry["g2_om"]), *_interval(entry["classical_bound"])]]
    rows += [[dn, *_interval(est), "", "", ""] for dn, est in entry["delta_n"].items()]
    return {"fig3b_cross_correlation.csv": _csv(
        ["delta_n", "g2_om", "ci_minus", "ci_plus",
         "bound", "bound_ci_minus", "bound_ci_plus"], rows)}


def _reproduce_fig3c(cfg, args):
    rows = [[dt, *protocol.pattern_g2(protocol.build_outcome_table(cfg, dt).probs)[0].tolist()]
            for dt in FIG3C_DELAYS]  # delta_t_ns, g2_om, g2_WW, g2_RR
    return {"fig3c_correlation_decay.csv": _csv(
        ["delta_t_ns", "g2_om_model", "bound_model"],
        [[dt, g_om, float(np.sqrt(g_ww * g_rr))] for dt, g_om, g_ww, g_rr in rows])}


def _reproduce_m3(cfg, args):
    from . import analysis
    # pump pulses in the mechanical-response measurement carried 5x the
    # write energy; scale the calibrated write-pulse heating accordingly
    pump_amplitude = 5.0 * cfg.heating.a_heat
    long_grid = np.linspace(2.0, 150.0, 60)
    short_grid = np.linspace(0.02, 1.0, 40)
    c_long = protocol.simulate_pump_probe(cfg, pump_amplitude, long_grid)
    c_short = protocol.simulate_pump_probe(cfg, pump_amplitude, short_grid)
    decay = analysis.fit_exponential(long_grid, c_long, "decay")
    rise = analysis.fit_exponential(short_grid, c_short, "saturating-rise")
    def tau(fit):  # a flat series has no time constant (inf): written as null
        return fit.time_constant if np.isfinite(fit.time_constant) else None
    return {
        "m3_pump_probe.csv": _csv(
            ["series", "delta_t_us", "count_rate"],
            [["long", t, c] for t, c in zip(long_grid, c_long)]
            + [["short", t, c] for t, c in zip(short_grid, c_short)]),
        "m3_fits.json": _json({
            "decay_time_constant_us": tau(decay),
            "rise_time_constant_us": tau(rise),
            "decay_rms_residual": decay.rms_residual,
            "rise_rms_residual": rise.rms_residual,
        }),
    }


_FIGURES = {"fig2": _reproduce_fig2, "fig3b": _reproduce_fig3b,
            "fig3c": _reproduce_fig3c, "m3": _reproduce_m3}


def cmd_reproduce(cfg, args):
    outputs = _FIGURES[args.figure](cfg, args)
    return {Path(args.out) / name: text for name, text in outputs.items()}, EXIT_OK


def cmd_calibrate_heating(cfg, args):
    from . import calibrate
    try:
        with open(args.target, newline="") as fh:
            reader = csv.DictReader(fh)
            targets = [(float(row["delta_t_ns"]), float(row["g2_om"])) for row in reader]
    except (KeyError, TypeError, ValueError) as exc:  # UnicodeDecodeError too
        raise config_mod.ConfigError(
            f"{args.target} line {reader.line_num}: need numeric delta_t_ns and "
            f"g2_om columns ({exc})") from exc
    a_heat = calibrate.calibrate_a_heat(cfg, targets)
    return {Path(args.out): _json({"a_heat": a_heat})}, EXIT_OK


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

    def stage(name, func, help, out, seed=True, trials=True, threads=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config path (defaults shipped)")
        if seed:
            p.add_argument("--seed", type=int, help="override RNG seed")
        if trials:
            p.add_argument("--trials", type=int, help="override trials per setting")
        if threads:
            p.add_argument("--threads", type=_thread_count, help=(
                "sampler workers (default 1): forked processes, at most one per core "
                "(POSIX; one where os.fork is missing); any count gives the same bytes"))
        p.add_argument("--out", required=True,
                       help=f"output {out} (missing parents are created)")
        return p

    p = stage("simulate", cmd_simulate, "sample a tag stream", "tag-stream file",
              threads=True)
    p.add_argument("--delta-t-ns", type=float, nargs="+",
                   help="override write->read delays (ns)")

    p = stage("analyze", cmd_analyze, "correlation analysis of a tag stream",
              "directory")
    p.add_argument("stream", help="tag-stream file")
    p.add_argument("--delta-t-ns", type=float, nargs="+",
                   help="write->read delays the stream was simulated with")
    p.add_argument("--read-window-ns", type=float,
                   help="trim the read evaluation window (e.g. 30)")
    p.add_argument("--delta-n", type=int,
                   help="also estimate g2 for trial offsets 1..N")

    p = stage("thermometry", cmd_thermometry, "alternating-pulse sideband thermometry",
              "JSON report", trials=False)
    p.add_argument("--pulses", type=int, help="pulses, both colours (default 1e6)")

    p = stage("reproduce", cmd_reproduce, "regenerate figure data series",
              "directory", threads=True)
    p.add_argument("--figure", required=True, choices=sorted(_FIGURES))

    p = stage("calibrate-heating", cmd_calibrate_heating, "fit the heating amplitude",
              "JSON file", seed=False, trials=False)
    p.add_argument("--target", required=True,
                   help="CSV with delta_t_ns,g2_om target curve")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("PHONONHERALD_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        # {path: its text, or a function that writes it}, and the exit code
        outputs, code = args.func(cfg, args)
        for path, content in outputs.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            if callable(content):
                content(path)
            else:
                path.write_text(content, newline="")
        _write_manifest(cfg, args, list(outputs))
        return code
    except tuple(_FAILURES) as exc:
        code, prefix = next(_FAILURES[cls] for cls in type(exc).__mro__
                            if cls in _FAILURES)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
