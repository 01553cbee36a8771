"""Arithmetic behind every reported number: percentiles, throughput,
accuracy digits, and the per-layer figures drawn from folded spans."""
from __future__ import annotations

import math

from tracer import ENGINE_EVALS, LAYERS, Totals

ACCURACY_CAP = 16.0

# Reference speed for reported times: the worker's calibration loop takes
# this long. Times are scaled by CAL_REF_S / (the loop's time next to them).
CAL_REF_S = 3e-4

CATALOG_IDS = (
    "GEO", "BINOM", "SERMUL", "GAMMA", "TANH", "HARM", "REFL", "HURW", "ZHALF",
    "VLNV", "LNGAM", "LEFTP", "MIRROR", "ODDP", "BD", "ZPP", "G2", "XPROD", "GOSPER",
)


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation between order
    statistics (the 'inclusive' definition: p0 = min, p100 = max)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def throughput(ops: int, seconds: float) -> float:
    """Operations completed per second."""
    if seconds <= 0:
        raise ValueError("throughput needs a positive duration")
    return ops / seconds


def error_scale(ref: complex) -> float:
    """|ref| floored at 1: the scale of the engine's own tolerance test."""
    return max(1.0, abs(ref))


def accuracy_digits(value: complex, ref: complex) -> float:
    """-log10 of the error of value against ref, relative to max(1, |ref|),
    capped at 16 digits."""
    err = abs(complex(value) - complex(ref)) / error_scale(ref)
    if err == 0.0:
        return ACCURACY_CAP
    return min(ACCURACY_CAP, -math.log10(err))


def normalized(seconds: float, cal_seconds: float) -> float:
    """A time measured next to a calibration loop, at the reference speed
    (the speed at which that loop takes CAL_REF_S)."""
    return seconds * CAL_REF_S / cal_seconds


def end_to_end(times, setup_samples, acc_digits, peak_rss_kb: int) -> dict:
    """The end-to-end metrics of one run.

    times are the run's operation times, normalized; setup_samples the
    normalized set-up times of fresh interpreters. Throughput is operations
    per second of operation time.
    """
    ms = [t * 1e3 for t in times]
    return {
        "setup_s": (median(setup_samples), "s"),
        "throughput_ops_per_s": (throughput(len(times), sum(times)), "1/s"),
        "latency_p50_ms": (median(ms), "ms"),
        "latency_p90_ms": (percentile(ms, 90.0), "ms"),
        "accuracy_digits_min": (min(acc_digits), "digits"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def _ms_per_op(ns: int, ops: int) -> float:
    return ns / 1e6 / ops


def per_layer(t: Totals, underclaimed: int, err_ratio_max: float, speed: float = 1.0) -> dict:
    """Per-layer metrics from the traced operations, each per operation
    except the error-bar figures (over one round's distinct operations).
    Times are multiplied by speed, the run's normalized-to-raw time ratio."""
    ops = max(t.ops, 1)

    def calls(*names):
        return sum(t.calls.get(n, 0) for n in names) / ops

    def ms(*names):
        return speed * sum(_ms_per_op(t.incl_ns.get(n, 0), ops) for n in names)

    eng_calls = sum(t.calls.get(n, 0) for n in ENGINE_EVALS)
    hurwitz = ("specialfn.hurwitz_zeta", "specialfn.hurwitz_zeta_sderiv")
    out = {
        "engine.calls": (eng_calls / ops, "count"),
        "engine.self_ms": (speed * _ms_per_op(t.self_ns.get("engine", 0), ops), "ms"),
        "engine.points_per_call": (t.engine_points / eng_calls if eng_calls else 0.0, "count"),
        "engine.useful_point_ratio": (
            t.engine_useful / t.engine_points if t.engine_points else 0.0, "ratio"),
        "engine.underclaimed_ops": (underclaimed, "count"),
        "engine.err_ratio_max": (err_ratio_max, "ratio"),
        "summands.eval_calls": (calls("summands.eval"), "count"),
        "summands.eval_points": (t.count.get("summands.eval", 0) / ops, "count"),
        "summands.eval_ms": (ms("summands.eval"), "ms"),
        "summands.deriv_calls": (calls("summands.deriv"), "count"),
        "summands.deriv_ms": (ms("summands.deriv"), "ms"),
        "specialfn.log_gamma_calls": (calls("specialfn.log_gamma"), "count"),
        "specialfn.log_gamma_ms": (ms("specialfn.log_gamma"), "ms"),
        "specialfn.digamma_calls": (calls("specialfn.digamma"), "count"),
        "specialfn.digamma_ms": (ms("specialfn.digamma"), "ms"),
        "specialfn.hurwitz_calls": (calls(*hurwitz), "count"),
        "specialfn.hurwitz_ms": (ms(*hurwitz), "ms"),
        "polycore.poly_sum_calls": (calls("polycore.poly_sum"), "count"),
        "polycore.poly_sum_ms": (ms("polycore.poly_sum"), "ms"),
        "polycore.bernoulli_calls": (calls("polycore.bernoulli"), "count"),
        "polycore.bernoulli_ms": (ms("polycore.bernoulli"), "ms"),
    }
    for ident in CATALOG_IDS:
        out[f"catalog.{ident}_ms"] = (ms(f"catalog.{ident}"), "ms")
    out["cli.parse_ms"] = (ms("cli.build_parser", "cli.parse_args"), "ms")
    out["cli.self_ms"] = (speed * _ms_per_op(t.self_ns.get("cli", 0), ops), "ms")
    for layer in LAYERS:
        share = 100.0 * t.self_ns.get(layer, 0) / t.root_ns if t.root_ns else 0.0
        out[f"{layer}.self_share"] = (share, "%")
    out["trace.spans_per_op"] = (t.spans / ops, "count")
    return out
