"""Workload definitions: inputs made from the seed, CLI stages, output checks.

Run as a script, it is the benchmark's set-up step, timed from outside:
``python3 perfbench/workloads.py WORKLOAD SEED OUT_DIR`` imports the
program, writes the workload's ``config.json`` and, for ``model``, the
calibration target ``target.csv``, built from the model at a seed-derived
``a_heat``.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

THREADS = 2                       # nproc of the reference machine
DELTA_N = 10
FIG3C_DELAYS = (100.0, 200.0, 400.0, 700.0, 1000.0, 1500.0)
CALIBRATION_DELAYS = (100.0, 400.0, 1000.0)
THERMOMETRY_PULSES = 20_000_000
SIGMAS = 5.0
A_HEAT_TOL = 2e-3
FIG3C_REL_TOL = 1e-6


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple                 # stage names, in run order
    delays: tuple = ()            # simulate/analyze settings (ns)
    trials: int = 0               # trials per setting


WORKLOADS = {
    "headline": Workload("headline", ("simulate", "analyze"), (100.0,), 100_000_000),
    "sweep": Workload("sweep", ("simulate", "analyze"), FIG3C_DELAYS, 5_000_000),
    "model": Workload("model", ("calibrate", "fig3c", "thermometry")),
}


def reference() -> dict:
    """Values recorded at the commit that defined the benchmark."""
    return json.loads((HERE / "reference.json").read_text())


def a_heat_truth(seed: int) -> float:
    """Heating amplitude behind the calibration target, drawn from the seed
    within 10% of the default (calibrated) value."""
    import numpy as np
    lo, hi = reference()["a_heat_truth_range"]
    return float(np.random.default_rng(seed).uniform(lo, hi))


def make_config(workload: Workload, seed: int):
    from phononherald import config
    cfg = config.default_config().replace(seed=seed)
    if workload.trials:
        cfg = cfg.replace(protocol=dataclasses.replace(
            cfg.protocol, trials=workload.trials, delta_t_list_ns=workload.delays))
    return cfg


def write_inputs(workload: Workload, seed: int, out: Path) -> None:
    import phononherald.cli  # noqa: F401  (the import every stage pays)
    from phononherald import calibrate, config
    out.mkdir(parents=True, exist_ok=True)
    cfg = make_config(workload, seed)
    config.save(cfg, out / "config.json")
    if workload.name == "model":
        curve = calibrate.model_curve(cfg, CALIBRATION_DELAYS, a_heat_truth(seed))
        with open(out / "target.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["delta_t_ns", "g2_om"])
            for dt, g in zip(CALIBRATION_DELAYS, curve):
                writer.writerow([dt, repr(float(g))])


def stage_args(stage: str, seed: int, inputs: Path, work: Path) -> list:
    """phononherald CLI arguments of one stage; outputs go under ``work``."""
    cfg = ["--config", str(inputs / "config.json")]
    seed_arg = ["--seed", str(seed)]
    if stage == "simulate":
        return ["simulate", *cfg, *seed_arg, "--threads", str(THREADS),
                "--out", str(work / "run.tags")]
    if stage == "analyze":
        return ["analyze", str(work / "run.tags"), *cfg, *seed_arg,
                "--delta-n", str(DELTA_N), "--out", str(work / "analysis")]
    if stage == "calibrate":
        return ["calibrate-heating", *cfg, "--target", str(inputs / "target.csv"),
                "--out", str(work / "fit.json")]
    if stage == "fig3c":
        return ["reproduce", "--figure", "fig3c", *cfg, "--out", str(work / "figures")]
    if stage == "thermometry":
        return ["thermometry", *cfg, *seed_arg, "--pulses", str(THERMOMETRY_PULSES),
                "--out", str(work / "thermometry.json")]
    raise ValueError(f"unknown stage {stage!r}")


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def outcome_tables(workload: Workload, seed: int) -> list:
    from phononherald import protocol
    cfg = make_config(workload, seed)
    return [protocol.build_outcome_table(cfg, dt) for dt in workload.delays]


def _poisson_failures(label, observed: int, mean: float) -> list:
    z = (observed - mean) / max(mean, 1e-300) ** 0.5
    if abs(z) > SIGMAS:
        return [f"{label}: observed {observed}, expected {mean:.1f} (z = {z:+.1f})"]
    return []


def check_stage(workload: Workload, stage: str, seed: int, work: Path,
                digests: list) -> list:
    """Check one stage's outputs; return a list of failure messages.

    ``digests`` collects the run's stream digests, one per ``simulate``.
    """
    ref = reference()
    if stage == "simulate":
        digest = sha256(work / "run.tags")
        digests.append(digest)
        fails = []
        if digest != digests[0]:
            fails.append("tag stream differs between passes of one seed")
        golden = ref["stream_sha256"][workload.name]
        if seed == golden["seed"] and digest != golden["sha256"]:
            fails.append(f"tag stream {digest} != recorded {golden['sha256']}")
        return fails
    if stage == "analyze":
        fails = []
        summary = json.loads((work / "analysis" / "summary.json").read_text())
        for entry in summary:
            dt = entry["delta_t_ns"]
            counters = entry["counters"]
            for key, p in ref["outcome_rates"][repr(float(dt))].items():
                fails += _poisson_failures(f"{dt:g} ns {key}", counters[key],
                                           p * counters["T"])
        if workload.name == "headline":
            verdict = next(e for e in summary if e["delta_t_ns"] == 100.0)
            if verdict.get("cauchy_schwarz", {}).get("violated") is not True:
                fails.append("100 ns Cauchy-Schwarz inequality not violated")
        return fails
    if stage == "calibrate":
        fitted = json.loads((work / "fit.json").read_text())["a_heat"]
        truth = a_heat_truth(seed)
        if abs(fitted - truth) > A_HEAT_TOL:
            return [f"fitted a_heat {fitted:.6f}, truth {truth:.6f}"]
        return []
    if stage == "fig3c":
        fails = []
        with open(work / "figures" / "fig3c_correlation_decay.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        fig3c = ref["fig3c"]
        if [float(r["delta_t_ns"]) for r in rows] != fig3c["delta_t_ns"]:
            return ["fig3c delays differ from the recorded ones"]
        for row, g2, bound in zip(rows, fig3c["g2_om_model"], fig3c["bound_model"]):
            for got, want in ((float(row["g2_om_model"]), g2),
                              (float(row["bound_model"]), bound)):
                if abs(got - want) > FIG3C_REL_TOL * abs(want):
                    fails.append(f"fig3c {row['delta_t_ns']} ns: {got!r} != {want!r}")
        return fails
    if stage == "thermometry":
        n_th = json.loads((work / "thermometry.json").read_text())["n_th"]
        from phononherald import config
        n_base = config.default_config().heating.n_base
        sigma = n_th["sigma_plus"] if n_th["value"] < n_base else n_th["sigma_minus"]
        if abs(n_th["value"] - n_base) > SIGMAS * sigma:
            return [f"n_th {n_th['value']:.5f} not within {SIGMAS:g} sigma of {n_base}"]
        return []
    raise ValueError(f"unknown stage {stage!r}")


if __name__ == "__main__":
    name, seed_text, out_dir = sys.argv[1:4]
    write_inputs(WORKLOADS[name], int(seed_text), Path(out_dir))
