"""The sgmod session benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The seed generates one session file
(perfbench/gen.py). A real ``python -m sgmod.cli run`` on it is the correctness
reference. Then, for S seconds, fresh single-threaded child processes run the
session one after another (a closed loop with one client): each makes the
``load_session`` / ``run_session`` / ``emit_report`` calls of ``sgmod run`` and
checks its records. A fresh process per session keeps the memo caches cold and
``ru_maxrss`` per session, as every ``sgmod run`` user has them.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1``, traced and untraced sessions alternate and it reports the
per-layer metrics and the tracing overhead. Each value is the median over the
run's sessions, with times scaled by calibration loops run around each session
(see scale_session); the lines above it give the sample count, the highest
percentile with at least ten samples beyond it, and the unscaled median.

A command fails when its status is ``error``, its outcome or an independently
recomputed fact is wrong, its session's exit code is not 0, or its
``payload_hash`` differs from the reference run's.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gen import WORKLOADS, generate  # noqa: E402

E2E_UNITS = {"session_s": "s", "setup_s": "s", "commands_s": "s", "pairs_per_s": "pairs/s",
             "peak_rss_mb": "MB"}
# Times are scaled to a machine on which the calibration loop in child.py takes
# this long; see scale_session.
CAL_REF_S = 0.05
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 170


def scaled(name: str, value: float, factor: float) -> float:
    if name.endswith("_per_s"):
        return value / factor
    if name.endswith("_s"):
        return value * factor
    return value


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return {"self_s": "s", "peak_mb": "MB", "hit_ratio": "ratio", "overhead_ratio": "ratio",
            "instances_per_s": "instances/s"}.get(stat, "count")


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def reference_run(root: Path, session: Path, env: dict, timeout: float) -> dict:
    """``sgmod run`` as a user runs it; its hashes and exit code are the reference."""
    proc = subprocess.run([sys.executable, "-m", "sgmod.cli", "run", str(session)], cwd=root,
                          env=env, capture_output=True, text=True, timeout=timeout)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    return {"exit_code": proc.returncode,
            "hashes": [line["payload_hash"] for line in lines if "payload_hash" in line],
            "stderr": proc.stderr[-2000:]}


def run_child(root: Path, session: Path, env: dict, traced: bool, spans: Path | None,
              timeout: float) -> dict | None:
    cmd = [sys.executable, str(HERE / "child.py"), "--session", str(session)]
    if traced:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    try:
        if proc.returncode == 0:
            return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        pass
    sys.stderr.write(proc.stderr[-2000:])
    return None


def high_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest of p99..p50 with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", ordered[max(0, math.ceil(p / 100 * n) - 1)]
    return None


def summarize(name: str, unit: str, values: list[float]) -> dict:
    row = {"name": name, "unit": unit, "median": statistics.median(values), "n": len(values)}
    hi = high_percentile(values)
    if hi is not None:
        row[hi[0]] = hi[1]
    return row


def format_row(row: dict) -> str:
    hi = [f"{k}={v:.6g}" for k, v in row.items() if k.startswith("p")]
    return (f"  {row['name']:<48} median={row['median']:.6g} {row['unit']}"
            f"  n={row['n']}" + (f"  {hi[0]}" if hi else ""))


def scale_session(child: dict) -> None:
    """Add a session's times scaled to calibration speed CAL_REF_S.

    A shared machine's speed drifts by tens of percent, in phases lasting
    seconds, and the drift slows sgmod and the calibration loop alike: on these
    sessions the two times correlate at about 0.8. So each phase is scaled by
    CAL_REF_S over the mean of the calibrations on either side of it (rates are
    divided). This removes most of the drift and keeps every change in the
    program, because the calibration loop runs no sgmod code.
    """
    before, mid, after = child["cal_s"]
    setup_factor = CAL_REF_S / ((before + mid) / 2)
    run_factor = CAL_REF_S / ((mid + after) / 2)
    child["factor"] = CAL_REF_S / statistics.fmean(child["cal_s"])
    child["scaled"] = {
        "setup_s": child["setup_s"] * setup_factor,
        "commands_s": child["commands_s"] * run_factor,
        "session_s": child["setup_s"] * setup_factor
        + (child["commands_s"] + child["emit_s"]) * run_factor,
        "pairs_per_s": (child["pairs"] / (child["pair_s"] * run_factor)
                        if child["pair_s"] > 0 else None),
    }


def count_failures(child: dict, reference: dict) -> tuple[int, list[str]]:
    """Failed commands of one session, with the reasons of the first few."""
    hashes, problems = child["hashes"], child["problems"]
    reasons = []
    if child["exit_code"] != 0 or reference["exit_code"] != 0:
        reasons.append(f"exit code {child['exit_code']}, sgmod run exit code "
                       f"{reference['exit_code']}")
        return len(hashes), reasons
    if len(hashes) != len(reference["hashes"]):
        reasons.append(f"{len(hashes)} records, sgmod run wrote {len(reference['hashes'])}")
        return len(hashes), reasons
    failed = 0
    for i, (h, ref, problem) in enumerate(zip(hashes, reference["hashes"], problems)):
        if problem is None and h != ref:
            problem = "payload_hash differs from sgmod run"
        if problem is not None:
            failed += 1
            reasons.append(f"command {i}: {problem}")
    return failed, reasons[:5]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = HERE.parent
    if not (root / "src" / "sgmod" / "__init__.py").is_file():
        print(f"error: no sgmod sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    session = out_dir / f"{tag}.json"
    session.write_text(generate(args.workload, args.seed), encoding="utf-8")
    env = child_env(root)

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    try:
        reference = reference_run(root, session, env, remaining())
    except subprocess.TimeoutExpired:
        print("error: sgmod run did not finish", file=sys.stderr)
        return 1
    if not reference["hashes"]:
        print(f"error: sgmod run produced no records:\n{reference['stderr']}", file=sys.stderr)
        return 1

    samples: dict[bool, list[dict]] = {False: [], True: []}
    lost = 0  # sessions that crashed or timed out
    deadline = time.monotonic() + args.seconds
    traced = False
    while time.monotonic() < deadline or not samples[False] or (args.trace and not samples[True]):
        spans = out_dir / f"{tag}.spans.json" if traced and not samples[True] else None
        result = run_child(root, session, env, traced, spans, min(CHILD_TIMEOUT_S, remaining()))
        if result is None:
            lost += 1
            if remaining() < 0 or lost > 3:
                break
        else:
            samples[traced].append(result)
        if args.trace:
            traced = not traced
    if not samples[False] or (args.trace and not samples[True]):
        print("error: no session completed", file=sys.stderr)
        return 1

    children = samples[False] + samples[True]
    attempted = sum(len(c["hashes"]) for c in children) + lost * len(reference["hashes"])
    failed = lost * len(reference["hashes"])
    reasons: list[str] = []
    for child in children:
        f, r = count_failures(child, reference)
        failed += f
        reasons.extend(r)

    plain = samples[False]
    for child in children:
        scale_session(child)
    cal_median = statistics.median(s for c in children for s in c["cal_s"])
    e2e_values = {name: [c["scaled"][name] for c in plain if c["scaled"][name] is not None]
                  for name in ("session_s", "setup_s", "commands_s", "pairs_per_s")}
    e2e_values["peak_rss_mb"] = [c["peak_rss_mb"] for c in plain]
    rows = [summarize(name, E2E_UNITS[name], values) for name, values in e2e_values.items()
            if values]
    if args.trace:
        layer_names = list(samples[True][0]["layers"])
        rows += [summarize(name, layer_unit(name),
                           [scaled(name, c["layers"][name], c["factor"]) for c in samples[True]])
                 for name in layer_names]
        overhead = (statistics.median(c["scaled"]["session_s"] for c in samples[True])
                    / statistics.median(e2e_values["session_s"]))
        rows.append({"name": "trace.overhead_ratio", "unit": "ratio", "median": overhead,
                     "n": len(samples[True])})
        shares = {layer: statistics.median(c["shares"].get(layer, 0.0) for c in samples[True])
                  for layer in samples[True][0]["shares"]}
        report_names = [*layer_names, "trace.overhead_ratio"]
    else:
        shares = None
        report_names = list(E2E_UNITS)

    env_stamp = environment()
    by_name = {row["name"]: row for row in rows}
    metrics = {name: {"value": by_name[name]["median"], "unit": by_name[name]["unit"]}
               for name in report_names if name in by_name}
    result = {"correct": failed == 0 and len(metrics) == len(report_names),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env_stamp, "sessions": len(children),
              "lost_sessions": lost, "failed_ratio": failed / attempted,
              "calibration_median_s": cal_median, "rows": rows,
              "raw_session_s": [c["setup_s"] + c["commands_s"] + c["emit_s"] for c in plain],
              "self_time_shares": shares, "failure_reasons": reasons[:20], "result": result}
    (out_dir / f"{tag}-trace{args.trace}.result.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")

    print(json.dumps({"env": env_stamp}))
    print(f"{args.workload} seed={args.seed} sessions={len(children)} "
          f"failed_ratio={failed}/{attempted} calibration_median={cal_median:.6g}s "
          f"raw_session_median={statistics.median(detail['raw_session_s']):.6g}s")
    for row in rows:
        print(format_row(row))
    if shares is not None:
        print("  self-time share by layer: " + ", ".join(
            f"{layer}={share:.3f}" for layer, share in sorted(shares.items(),
                                                             key=lambda kv: -kv[1])))
    for reason in reasons[:20]:
        print(f"  failure: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
