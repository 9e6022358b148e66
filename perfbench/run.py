"""phononherald benchmark: one workload run, measured from outside the program.

    python3 perfbench/run.py --workload headline|sweep|model|all \
        --seed N --seconds S --trace 0|1

A run sets up the workload's inputs several times in fresh processes (the
median is ``setup_s``), then repeats passes through the workload's CLI
stages, each stage a fresh ``phononherald`` process, while at least half
of another pass still fits in ``--seconds``. Every stage's outputs are checked. With
``--trace 1`` one more pass runs every stage under ``tracer.py``, which
records spans around each layer's public functions, and the per-layer
metrics come from those spans. The report lists every metric by name and
unit; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics named in BENCHMARK.json. Raw samples, the
environment and the spans go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 3                        # set-up repetitions per run
RUN_LIMIT_S = 170.0               # a run must end within 180 s
PROBE_TRIALS = 10_000_000         # per setting, for the sampler thread probe


def stage_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv, log_path: Path, deadline: float) -> dict:
    """Run one process to completion; wall and CPU seconds, peak RSS, exit code."""
    timeout = max(deadline - time.monotonic(), 1.0)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=stage_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode}


class Ops:
    """Attempted and failed operations (a stage, a set-up or a probe)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, label: str, rc: int, problems, log_path=None) -> bool:
        self.attempted += 1
        problems = list(problems)
        if rc != 0:
            tail = log_path.read_text(errors="replace")[-400:] if log_path else ""
            problems.insert(0, f"exit code {rc}: {tail.strip()}")
        self.failed += bool(problems)
        self.failures += [f"{label}: {p}" for p in problems]
        return not problems


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        # the ceiling keeps git from searching directories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                text=True, capture_output=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "phononherald").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    from workloads import THREADS
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "git_commit": commit, "source_sha256": src.hexdigest(),
            "seed": seed, "threads": THREADS}


def median(values):
    return statistics.median(values) if values else None


def run_pass(wl, seed, inputs, work, ops, digests, deadline, pass_no, spans_dir=None):
    """One pass through the workload's stages; ``spans_dir`` traces it."""
    import workloads
    stages = {}
    for stage in wl.stages:
        args = workloads.stage_args(stage, seed, inputs, work)
        if spans_dir is None:
            argv = [sys.executable, "-m", "phononherald.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"),
                    str(spans_dir / f"{stage}.json"), "--", *args]
        log = work / f"{stage}.log"
        sample = run_process(argv, log, deadline)
        problems = []
        if sample["rc"] == 0:
            try:
                problems = workloads.check_stage(wl, stage, seed, work, digests)
            except (OSError, ValueError, KeyError, StopIteration) as exc:
                problems = [f"output check could not run: {exc!r}"]
        label = f"pass {pass_no} {stage}" + (" (traced)" if spans_dir else "")
        sample["ok"] = ops.record(label, sample["rc"], problems, log)
        stages[stage] = sample
    return {"stages": stages,
            "wall_s": sum(s["wall_s"] for s in stages.values()),
            "cpu_s": sum(s["cpu_s"] for s in stages.values()),
            "rss_mb": max(s["rss_mb"] for s in stages.values())}


def end_to_end(wl, setups, passes, ops) -> list:
    """(name, unit, value, samples) of every end-to-end metric that applies."""
    rows = [("setup_s", "s", [s["wall_s"] for s in setups]),
            ("pass_s", "s", [p["wall_s"] for p in passes]),
            ("cpu_s", "s", [p["cpu_s"] for p in passes]),
            ("peak_rss_mb", "MB", [p["rss_mb"] for p in passes])]
    for stage in wl.stages:
        rows.append((f"{stage}_s", "s", [p["stages"][stage]["wall_s"] for p in passes]))
    out = [(name, unit, median(vals), vals) for name, unit, vals in rows]
    if wl.trials:
        trials = wl.trials * len(wl.delays)
        vals = [trials / (p["stages"]["simulate"]["wall_s"]
                          + p["stages"]["analyze"]["wall_s"]) for p in passes]
        out.append(("trials_per_s", "trials/s", median(vals), vals))
    out.append(("failed_frac", "fraction", ops.failed / ops.attempted, []))
    return out


def merge_summaries(summaries) -> dict:
    merged = {"functions": {}, "layers": {}}
    for summary in summaries:
        for kind in ("functions", "layers"):
            for name, figures in summary[kind].items():
                into = merged[kind].setdefault(name, {})
                for key, value in figures.items():
                    into[key] = into.get(key, 0) + value
    return merged


def per_layer(summaries, traced, untraced_pass_s, probe) -> list:
    """(name, unit, value) of every per-layer metric that applies.

    ``summaries`` maps stage -> tracer.summarize output; ``traced`` is the
    traced pass; ``probe`` holds the sampler thread probe, if it ran."""
    s = merge_summaries(summaries.values())

    def f(name, key="s"):
        return s["functions"].get(name, {}).get(key, 0)

    def per(num, den, scale=1.0):
        return num / den * scale if den else None

    def called(name, value):
        return value if f(name, "calls") else None

    out = []
    for layer in ("protocol", "rng", "fock", "detection", "analysis"):
        out.append((f"{layer}.s", "s", s["layers"][layer]["s"]))
    out.append(("tags.s", "s", s["layers"]["tags"]["s"] or None))
    out.append(("calibrate.s", "s", s["layers"]["calibrate"]["s"] or None))
    out.append(("gaussian.calls", "count", s["layers"]["gaussian"]["calls"]))
    out.append(("gaussian.s", "s", s["layers"]["gaussian"]["s"] or None))

    bot = "protocol.build_outcome_table"
    out += [(f"{bot}.calls", "count", f(bot, "calls")),
            (f"{bot}.s", "s", f(bot)),
            (f"{bot}.ms_per_call", "ms", per(f(bot), f(bot, "calls"), 1e3))]
    st = "protocol.sample_trials"
    out += [(f"{st}.trials", "count", f(st, "trials")),
            (f"{st}.records", "count", f(st, "records")),
            (f"{st}.s", "s", called(st, f(st))),
            (f"{st}.self_s", "s", called(st, f(st, "self_s"))),
            (f"{st}.ns_per_trial", "ns", per(f(st), f(st, "trials"), 1e9)),
            (f"{st}.records_per_trial", "ratio", per(f(st, "records"), f(st, "trials"))),
            (f"{st}.speedup_2t", "x", probe and probe["speedup_2t"])]
    th = "protocol.simulate_thermometry"
    out += [(f"{th}.s", "s", called(th, f(th))),
            (f"{th}.ns_per_pulse", "ns", per(f(th), f(th, "pulses"), 1e9))]
    u = "rng.uniforms"
    out += [(f"{u}.calls", "count", f(u, "calls")),
            (f"{u}.variates", "count", f(u, "variates")),
            (f"{u}.thread_s", "s", f(u, "thread_s")),
            (f"{u}.ns_per_variate", "ns", per(f(u, "thread_s"), f(u, "variates"), 1e9))]
    for name in ("two_mode_squeeze", "beam_splitter", "add_thermal_noise", "thermal_state"):
        out += [(f"fock.{name}.calls", "count", f(f"fock.{name}", "calls")),
                (f"fock.{name}.s", "s", f(f"fock.{name}"))]
    pcm = "detection.pair_click_matrix"
    out += [(f"{pcm}.calls", "count", f(pcm, "calls")), (f"{pcm}.s", "s", f(pcm))]
    for name in ("write_tagstream", "read_tagstream"):
        t = f"tags.{name}"
        out += [(f"{t}.bytes", "count", f(t, "bytes")),
                (f"{t}.s", "s", called(t, f(t))),
                (f"{t}.mb_per_s", "MB/s", per(f(t, "bytes"), f(t), 1e-6))]
    for name in ("tabulate", "g2_cross_estimate", "g2_cross_pooled",
                 "g2_auto_estimate", "classical_bound", "sideband_occupancy"):
        a = f"analysis.{name}"
        out += [(f"{a}.calls", "count", f(a, "calls")), (f"{a}.s", "s", called(a, f(a)))]
    ca = "calibrate.calibrate_a_heat"
    fits = f(ca, "calls")
    fit_tables = summaries.get("calibrate", {}).get("functions", {}).get(bot, {}).get("calls", 0)
    out += [(f"{ca}.calls", "count", fits),
            (f"{ca}.s", "s", called(ca, f(ca))),
            ("calibrate.model_curve.calls", "count", f("calibrate.model_curve", "calls")),
            ("calibrate.tables_per_fit", "count", per(fit_tables, fits))]
    cli_self = {stage: traced["stages"][stage]["wall_s"] - summaries[stage]["non_cli_s"]
                for stage in summaries}
    out += [(f"cli.{stage}.self_s", "s", v) for stage, v in cli_self.items()]
    out += [("cli.self_s", "s", sum(cli_self.values())),
            ("trace.pass_s", "s", traced["wall_s"]),
            ("trace.overhead_s", "s", traced["wall_s"] - untraced_pass_s)]
    return [row for row in out if row[2] is not None]


def sampler_probe(wl, seed, ops) -> dict:
    """Best of two timings of sample_trials with 1 and with 2 threads, on the
    workload's tables and PROBE_TRIALS trials per setting (fewer if the
    workload has fewer); both thread counts must give the same stream."""
    from phononherald import protocol
    import workloads
    cfg = workloads.make_config(wl, seed)
    tables = workloads.outcome_tables(wl, seed)
    trials = min(wl.trials, PROBE_TRIALS)
    times, streams = {}, {}
    for _ in range(2):
        for threads in (1, workloads.THREADS):
            start = time.perf_counter()
            streams[threads] = protocol.sample_trials(cfg, tables, trials,
                                                      threads=threads)
            elapsed = time.perf_counter() - start
            times[threads] = min(times.get(threads, elapsed), elapsed)
    same = streams[1].records.tobytes() == streams[workloads.THREADS].records.tobytes()
    ops.record("sampler probe", 0, [] if same else ["stream depends on thread count"])
    return {"trials_per_setting": trials, "s_1t": times[1],
            "s_2t": times[workloads.THREADS],
            "speedup_2t": times[1] / times[workloads.THREADS]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, wanted) -> int:
    """Run one workload and print its report and result line; ``wanted`` is
    BENCHMARK.json's metric list for this mode."""
    import workloads
    wl = workloads.WORKLOADS[name]
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    results = HERE / "results" / f"{name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}"
    results.mkdir(parents=True)
    (HERE / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=HERE / "work"))
    ops = Ops()
    try:
        setups = []
        for k in range(SETUPS):
            out = work / f"inputs{k}"
            log = work / f"setup{k}.log"
            sample = run_process([sys.executable, str(HERE / "workloads.py"),
                                  name, str(seed), str(out)], log, deadline)
            problems = []
            if sample["rc"] == 0 and k:
                for path in sorted((work / "inputs0").iterdir()):
                    if path.read_bytes() != (out / path.name).read_bytes():
                        problems.append(f"{path.name} differs from the first set-up")
            ops.record(f"setup {k}", sample["rc"], problems, log)
            setups.append(sample)
        if setups[0]["rc"] != 0:
            print(f"set-up failed:\n{(work / 'setup0.log').read_text()}", file=sys.stderr)
            return 1
        inputs = work / "inputs0"

        sys.path.insert(0, str(SRC))
        digests = []
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(run_pass(wl, seed, inputs, work, ops, digests, deadline,
                                   len(passes) + 1))
            elapsed = time.perf_counter() - t0
            # start another pass while at least half of it fits in --seconds
            if elapsed * (len(passes) + 0.5) / len(passes) > seconds:
                break

        e2e = end_to_end(wl, setups, passes, ops)
        layers, probe, traced = [], None, None
        if trace:
            spans_dir = results / "spans"
            spans_dir.mkdir()
            traced = run_pass(wl, seed, inputs, work, ops, digests, deadline,
                              "traced", spans_dir)
            from tracer import summarize
            summaries = {}
            for stage in wl.stages:
                path = spans_dir / f"{stage}.json"
                if path.exists():
                    summaries[stage] = summarize(json.loads(path.read_text())["spans"])
            if wl.trials:
                probe = sampler_probe(wl, seed, ops)
            pass_s = next(v for n, _, v, _ in e2e if n == "pass_s")
            if len(summaries) == len(wl.stages):
                layers = per_layer(summaries, traced, pass_s, probe)

        values = {row[0]: row for row in (layers if trace else e2e)}
        metrics = {}
        for m in wanted:
            row = values.get(m["name"])
            if row is not None:
                metrics[m["name"]] = {"value": row[2], "unit": m["unit"]}
        correct = not ops.failures and len(metrics) == len(wanted)

        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "environment": environment(seed), "setups": setups, "passes": passes,
                  "traced_pass": traced, "sampler_probe": probe,
                  "end_to_end": {n: {"value": v, "unit": u, "n": len(s), "samples": s}
                                 for n, u, v, s in e2e},
                  "per_layer": {n: {"value": v, "unit": u} for n, u, v in layers},
                  "stream_sha256": digests,
                  "attempted": ops.attempted, "failed": ops.failed,
                  "failures": ops.failures,
                  "a_heat_truth": workloads.a_heat_truth(seed) if name == "model" else None,
                  "run_s": time.monotonic() - started}
        (results / "result.json").write_text(json.dumps(record, indent=1) + "\n")
        report(record, e2e, layers, results)
        print(json.dumps({"correct": correct, "attempted": ops.attempted,
                          "failed": ops.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(record, e2e, layers, results):
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}"
          f"  threads {env['threads']}  nproc {env['nproc']}  cpu {env['cpu_model']}")
    print(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}"
          f"  commit {env['git_commit']}  source {env['source_sha256'][:16]}")
    print("end-to-end (median over runs in this process, n = samples):")
    for name, unit, value, samples in e2e:
        n = f"n={len(samples)}" if samples else f"{record['failed']}/{record['attempted']}"
        print(f"  {name:<16} {value:>14.6g} {unit:<9} {n}")
    for digest in dict.fromkeys(record["stream_sha256"]):
        print(f"  stream sha256 {digest}  seed {record['seed']}")
    if layers:
        print("per-layer (traced pass):")
        for name, unit, value in layers:
            print(f"  {name:<44} {value:>14.6g} {unit}")
    verdict = "PASS" if not record["failures"] else "FAIL"
    print(f"output checks: {verdict}  ({record['failed']} of {record['attempted']} "
          f"operations failed)")
    for failure in record["failures"]:
        print(f"  {failure}")
    print(f"raw samples: {results.relative_to(ROOT)}/result.json")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["headline", "sweep", "model", "all"])
    parser.add_argument("--seed", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "phononherald" / "cli.py").is_file():
        print(f"phononherald sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                            spec["per_layer"] if args.trace else spec["end_to_end"])
    combined = {}
    for w in ("headline", "sweep", "model"):
        proc = subprocess.run([sys.executable, __file__, "--workload", w,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(proc.stdout)
            return proc.returncode
        report_lines, result = proc.stdout.rstrip("\n").rsplit("\n", 1)
        print(report_lines + "\n")
        combined[w] = json.loads(result)
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
