"""fracsum benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload elementary --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/fracsum`` must be there; no
install is needed). Steps, each in its own process:

1. set-up time: a warm-up interpreter, then 9 fresh interpreters (4 before
   the timed run, 5 after it) that time ``import fracsum`` plus building the
   workload's summands/registry;
2. the timed run (``worker.py``): whole rounds of the workload's operations
   for ``--seconds``, a closed loop with one caller;
3. references (``reference.py``, mpmath), computed apart from the program.

Every output is then checked, and the last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). Full results and the spans file go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import metrics as M
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 9
EPS = 2.220446049250313e-16


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _python(args, *, timeout, stdin=None) -> str:
    proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          text=True, timeout=timeout, env=_env(), cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup(ops_file: Path, n: int) -> list[float]:
    """Normalized set-up seconds of n fresh interpreters."""
    worker = str(BENCH / "worker.py")
    samples = []
    for _ in range(n):
        out = _python([worker, "--ops", str(ops_file), "--setup-only"], timeout=120)
        d = json.loads(out.strip().splitlines()[-1])
        samples.append(M.normalized(d["setup_s"], d["cal_s"]))
    return samples


def _c(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


class Check:
    """Judges every row against the references; collects accuracy and error-bar data."""

    def __init__(self, ops, refs):
        self.ops, self.refs = ops, refs
        self.failed = 0
        self.correct = True
        self.digits: list[float] = []
        self.problems: list[str] = []
        self.err_ratio: dict[int, float] = {}

    def _miss(self, i, why, claimed_ok):
        self.failed += 1
        if claimed_ok:
            self.correct = False
            if len(self.problems) < 20:
                self.problems.append(f"op {i}: {why}")

    def rows(self, rows) -> None:
        for i, phase, dt, cal, val, note in rows:
            op = self.ops[i]
            if op["check"] == "catalog":
                self._catalog(i, val, note)
                continue
            if val is None:
                self._miss(i, f"raised {note}", False)
                continue
            v, err, conv = complex(val[0], val[1]), val[2], val[3]
            ref = _c(self.refs["ops"][str(i)])
            if not conv or abs(v - ref) > op["tol"] * M.error_scale(ref):
                self._miss(i, f"value {v} vs reference {ref}", conv)
                continue
            self.digits.append(M.accuracy_digits(v, ref))
            claim = max(err, 4 * EPS * M.error_scale(ref))
            self.err_ratio[i] = max(self.err_ratio.get(i, 0.0), abs(v - ref) / claim)

    def _catalog(self, i, recs, rendered) -> None:
        if recs is None:
            self._miss(i, f"sweep raised {rendered}", False)
            return
        worst = M.ACCURACY_CAP
        bad = None
        for ident, point, lre, lim, rre, rim, errored in recs:
            ref = _c(self.refs["catalog"][f"{ident}|{point}"])
            tol = self.refs["catalog_tol"][ident]
            targets = [complex(lre, lim)]
            if ident == "MIRROR":
                targets.append(complex(rre, rim))
            for v in targets:
                worst = min(worst, M.accuracy_digits(v, ref))
                if errored or abs(v - ref) > tol * M.error_scale(ref):
                    bad = f"{ident} {point}: {v} vs reference {ref}"
        if not rendered:
            bad = "a report rendered empty"
        if bad:
            self._miss(i, bad, True)
        else:
            self.digits.append(worst)


def references(ops, catalog_labels) -> dict:
    req = {"ops": ops}
    if catalog_labels:
        req["catalog"] = catalog_labels
    return json.loads(_python([str(BENCH / "reference.py")], timeout=170, stdin=json.dumps(req)))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    ops = workloads.make_ops(workload, seed)
    ops_file = OUT / f"ops-{tag}.json"
    ops_file.write_text(json.dumps({"workload": workload, "ops": ops}))
    # the first interpreter compiles the bytecode and is not counted; the
    # samples straddle the timed run so that a slow spell of the machine
    # moves fewer of them
    setup = measure_setup(ops_file, 1 + SETUP_SAMPLES // 2)[1:]
    result_file = OUT / f"worker-{tag}.json"
    args = [str(BENCH / "worker.py"), "--ops", str(ops_file), "--out", str(result_file),
            "--seconds", str(seconds)]
    if trace:
        args += ["--trace", "--spans", str(OUT / f"spans-{tag}.csv")]
    _python(args, timeout=3 * seconds + 120)
    setup += measure_setup(ops_file, SETUP_SAMPLES - len(setup))
    res = json.loads(result_file.read_text())
    rows = res["rows"]
    labels = []
    if workload == "catalog" and rows[0][4] is not None:
        labels = [[r[0], r[1]] for r in rows[0][4]]
    refs = references(ops, labels)

    check = Check(ops, refs)
    check.rows(rows)
    if not check.digits:
        raise BenchError("no operation succeeded")
    base = [r for r in rows if r[1] == 0]
    summary = {"correct": check.correct, "attempted": len(rows), "failed": check.failed}
    ratios = check.err_ratio.values()
    underclaimed, ratio_max = sum(1 for r in ratios if r > 1.0), max(ratios, default=0.0)
    if trace:
        from tracer import Totals

        # the untraced rounds give the host's speed: a calibration loop right
        # after a traced operation also pays for collecting its spans
        speed = sum(M.normalized(r[2], r[3]) for r in base) / sum(r[2] for r in base)
        out = M.per_layer(Totals(**res["totals"]), underclaimed, ratio_max, speed)
        out["trace.overhead_pct"] = (overhead_pct(rows), "%")
    else:
        out = M.end_to_end([M.normalized(r[2], r[3]) for r in base], setup, check.digits,
                           res["peak_rss_kb"])
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
    err_bar = {"underclaimed_ops": underclaimed, "distinct_ops_checked": len(check.err_ratio),
               "err_ratio_max": ratio_max}
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {**summary, "setup_samples": setup, "phases": res["phases"],
         "wall_clock": {"latency_p50_ms": M.median([r[2] * 1e3 for r in base]),
                        "throughput_ops_per_s": len(base) / sum(r[2] for r in base)},
         "err_bar": err_bar, "problems": check.problems}, indent=1))
    for p in check.problems:
        print(f"check: {p}", file=sys.stderr)
    return summary


def overhead_pct(rows) -> float:
    """Traced over untraced time of one round, from per-operation medians of
    wall-clock times: the two kinds of round alternate, so they share the
    host's drift, while the calibration loop after a traced operation is
    slowed by the garbage its spans leave."""
    by = {0: {}, 1: {}}
    for i, phase, dt, *_ in rows:
        by[phase].setdefault(i, []).append(dt)
    common = by[0].keys() & by[1].keys()
    plain = sum(M.median(by[0][i]) for i in common)
    traced = sum(M.median(by[1][i]) for i in common)
    return 100.0 * (traced / plain - 1.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fracsum" / "__init__.py").is_file():
        print(f"error: no fracsum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
