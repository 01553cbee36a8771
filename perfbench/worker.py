"""The timed process: one fresh interpreter, one thread, one caller.

    python3 perfbench/worker.py --ops OPS.json --out RESULT.json --seconds S [--trace]
    python3 perfbench/worker.py --ops OPS.json --setup-only

Set-up is ``import fracsum`` plus building the round's summands (or the
identity registry, or importing the CLI). The loop then repeats whole rounds
of operations, each timed as one call into fracsum's public API, until the
time is up; a short calibration loop is timed after every operation. With
``--trace`` untraced and traced rounds alternate, so the tracer's overhead
is measured in the same process, under the same drift of the host's speed.
mpmath is never imported here; ``run.py`` checks the outputs.
"""
from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

clock = time.perf_counter

# The calibration loop is fixed work of the kinds fracsum does: scalar
# complex arithmetic and cmath.log through a dict of 4096 entries, and
# complex numpy exp and abs over 4096 points. It is timed between
# operations; run.py divides each operation's time by it, which cancels the
# host's swings in speed (see README).
_CAL_TABLE = {i: complex(i, 0.5) for i in range(4096)}


def calibrate() -> float:
    """Seconds taken by the fixed calibration loop, now. Call it only after
    the set-up: numpy's import belongs to the timed set-up."""
    import numpy as np

    arr = np.linspace(1.0, 2.0, 4096)
    t0 = clock()
    acc = 0j
    for i in range(0, 4096, 8):
        z = _CAL_TABLE[i]
        acc += cmath.log(z + 7.5) * (z - 0.5) / (z + 1.0)
    acc += float(np.abs(np.exp(arr * 0.5j)).sum())
    return clock() - t0


def _cplx(pair) -> complex:
    return complex(pair[0], pair[1])


def _arg(pair):
    z = _cplx(pair)
    return z.real if z.imag == 0.0 else z


def setup(workload: str, ops: list[dict]):
    """Import fracsum and build what the round needs; returns (seconds, state)."""
    t0 = clock()
    import fracsum  # noqa: F401  (the import is what is timed)
    from fracsum import summands

    if workload == "catalog":
        from fracsum import catalog

        state = catalog.identity_ids()
    elif workload == "cli-exact":
        import fracsum.cli  # noqa: F401

        state = None
    else:
        state = [getattr(summands, op["family"])(*(_arg(a) for a in op["args"])) for op in ops]
    return clock() - t0, state


def _engine_call(op: dict):
    from fracsum import engine

    x, y = _cplx(op["x"]), _cplx(op["y"])
    left = op["dir"] == "left"
    # look the function up at call time, so that the tracer's wrapper is used
    if op["mode"] == "prod":
        return lambda f: engine.frac_product(f, x, y, left=left)
    name = "frac_sum_left" if left else "frac_sum_right"
    return lambda f: getattr(engine, name)(f, x, y)


def _sweep(ids, pieces=None):
    """run_identity over every id, each report rendered. With a pieces list,
    each identity is timed on its own and a calibration loop runs between
    identities (outside the timing): (seconds, calibration seconds after)."""
    from fracsum import catalog

    reports, texts = [], []
    for ident in ids:
        t0 = clock()
        rep = catalog.run_identity(ident)
        texts.append(rep.to_text())
        if pieces is not None:
            pieces.append((clock() - t0, calibrate()))
        reports.append(rep)
    return reports, texts


def _parse_cli(fmt: str, text: str):
    """(value, err_estimate, converged) from the CLI's plain/json/csv output."""
    if fmt == "json":
        d = json.loads(text)
        return complex(*d["value"]), d["err_estimate"], d["converged"]
    if fmt == "csv":
        row = text.strip().splitlines()[1].split(",")
        return complex(float(row[0]), float(row[1])), float(row[2]), row[4] == "true"
    fields = dict(line.split(" ", 1) for line in text.strip().splitlines())
    value = complex(fields["value"].replace("i", "j"))
    return value, float(fields["err_estimate"]), fields["converged"] == "true"


class Runner:
    """Executes the round's operations; records one row per operation."""

    def __init__(self, workload, ops, state, out_dir):
        self.workload, self.ops, self.state, self.out_dir = workload, ops, state, out_dir
        self.calls = [self._make_call(i, op) for i, op in enumerate(ops)]
        self.rows: list[list] = []
        self.tracer = None
        self.pieces = [] if workload == "catalog" else None
        self.cal_prev = calibrate()

    def _make_call(self, i, op):
        if self.workload == "catalog":
            return lambda: _sweep(self.state, self.pieces)
        if self.workload == "cli-exact":
            from fracsum import cli

            argv = list(op["argv"])
            path = None
            if op["to_file"]:
                path = os.path.join(self.out_dir, f"cli-{i}.txt")
                argv += ["--path", path]

            def call():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
                return rc, buf, path

            return call
        run = _engine_call(op)
        return lambda: run(self.state[i])

    def _result(self, i, out) -> list:
        """[value, note] of one finished operation."""
        if self.workload == "catalog":
            reports, texts = out
            recs = [[r.identity, r.point, r.lhs.real, r.lhs.imag, r.rhs.real, r.rhs.imag,
                     r.note.startswith("error:")] for rep in reports for r in rep.records]
            return [recs, all(texts)]
        if self.workload == "cli-exact":
            rc, buf, path = out
            if rc != 0:
                return [None, f"exit code {rc}"]
            if path is not None:
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
            else:
                text = buf.getvalue()
            v, err, conv = _parse_cli(self.ops[i]["fmt"], text)
            return [[v.real, v.imag, err, conv], None]
        return [[out.value.real, out.value.imag, out.err_estimate, out.converged], None]

    def round(self, phase: int) -> None:
        """Each operation once; a row is [op, phase, seconds, calibration
        seconds (mean of the loops just before and after), value, note]."""
        tracer = self.tracer
        for i, call in enumerate(self.calls):
            t0 = clock()
            try:
                out = call() if tracer is None else tracer.run_op(call)
            except Exception as exc:  # a failed operation is counted, not fatal
                dt, row = clock() - t0, [None, f"{type(exc).__name__}: {exc}"]
            else:
                dt = clock() - t0
                row = self._result(i, out)
            finally:
                if tracer is not None:
                    tracer.end_op()
            if self.pieces:
                dt, cal = self._piecewise()
            else:
                after = calibrate()
                cal = (self.cal_prev + after) / 2
                self.cal_prev = after
            self.rows.append([i, phase, dt, cal, *row])

    def _piecewise(self):
        """Sweep time and the calibration that normalizes it piece by piece:
        each piece by the mean of the loops just before and after it."""
        total = scaled = 0.0
        for dt, cal in self.pieces:
            total += dt
            scaled += dt / ((self.cal_prev + cal) / 2)
            self.cal_prev = cal
        self.pieces.clear()
        return total, total / scaled

    def loop(self, seconds: float, phase: int) -> tuple[int, float]:
        """Whole rounds until `seconds` have passed; (rounds, loop seconds)."""
        t0 = clock()
        rounds = 0
        while True:
            self.round(phase)
            rounds += 1
            if clock() - t0 >= seconds:
                return rounds, clock() - t0

    def loop_alternating(self, seconds: float, tracer, bindings) -> list[dict]:
        """Pairs of rounds, untraced (phase 0) then traced (phase 1), until
        `seconds` have passed; per phase, its rounds and loop seconds."""
        plain = self.state
        traced = plain
        if self.workload in ("elementary", "lngamma"):
            traced = [tracer.wrap_summand(f) for f in plain]
        self.pieces = None  # calibration loops would sit inside the sweep's span
        phases = [{"rounds": 0, "loop_s": 0.0}, {"rounds": 0, "loop_s": 0.0}]
        t0 = clock()
        while clock() - t0 < seconds:
            for phase in (0, 1):
                bindings.switch(phase == 1)
                self.tracer, self.state = (tracer, traced) if phase else (None, plain)
                t1 = clock()
                self.round(phase)
                phases[phase]["rounds"] += 1
                phases[phase]["loop_s"] += clock() - t1
        bindings.switch(False)
        self.tracer, self.state = None, plain
        return phases


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--ops", required=True)
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    with open(args.ops, encoding="utf-8") as fh:
        req = json.load(fh)
    workload, ops = req["workload"], req["ops"]
    setup_s, state = setup(workload, ops)
    if args.setup_only:
        # after the set-up, whose numpy import the loop needs
        cal = statistics.median(calibrate() for _ in range(5))
        print(json.dumps({"setup_s": setup_s, "cal_s": cal}))
        return 0
    runner = Runner(workload, ops, state, os.path.dirname(os.path.abspath(args.out)))
    result = {"setup_s": setup_s, "phases": []}
    if args.trace:
        import tracer as tracing

        tr = tracing.Tracer()
        result["phases"] = runner.loop_alternating(args.seconds, tr, tracing.install(tr))
    else:
        rounds, loop_s = runner.loop(args.seconds, 0)
        result["phases"].append({"rounds": rounds, "loop_s": loop_s})
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["rows"] = runner.rows
    if args.trace:
        t = tr.totals
        result["totals"] = {k: getattr(t, k) for k in (
            "calls", "incl_ns", "count", "self_ns", "root_ns", "spans",
            "engine_points", "engine_useful", "ops")}
        if args.spans:
            tr.write_spans(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
