#!/usr/bin/env python3
"""Checks one bench JSON report: its schema and the contracts it certifies.

Usage: check_bench.py [--baseline] FILE

FILE is the JSON written by bench/detector_latency, serving_latency,
soft_llr_quality or coded_throughput; its "bench" key selects the checks.
Pass --baseline for a committed BENCH_*.json. A baseline keeps the host
block it was recorded with, so only the host keys its bench has always
written are required; a fresh run must carry the whole shared host block.
The speed floors that hold only on an optimized recording host (the >= 3x
quantized decode speedup) are checked on baselines only.

Exits 0 and prints one summary line when every check holds; otherwise
prints the first failed check and exits 1.
"""
import argparse
import json
import math
import sys

TIERS = ("scalar", "sse2", "avx2")

# The shared host block (bench_util.h write_host_json) and each key's type.
HOST_TYPES = {
    "compiler": str,
    "flags": str,
    "geosphere_native": bool,
    "hardware_concurrency": int,
    "simd_tier": str,
    "simd_width": int,
    "viterbi_tier": str,
}


class CheckError(Exception):
    pass


def require(cond, what):
    if not cond:
        raise CheckError(what)


def require_keys(records, keys, what):
    for r in records:
        missing = [k for k in keys if k not in r]
        require(not missing, f"{what} record {r} lacks {missing}")


def check_host(host, required):
    missing = [k for k in required if k not in host]
    require(not missing, f"host block lacks {missing}")
    for key, value in host.items():
        want = HOST_TYPES.get(key)
        if want is None:
            continue
        # bool is an int subclass in Python; neither may stand in for the other.
        require(type(value) is want, f"host {key}={value!r} is not {want.__name__}")
    if "hardware_concurrency" in host:
        require(host["hardware_concurrency"] >= 1, "host hardware_concurrency < 1")
    if "simd_width" in host:
        require(host["simd_width"] >= 1, "host simd_width < 1")
    for key in ("simd_tier", "viterbi_tier"):
        if key in host:
            require(host[key] in TIERS, f"host {key}={host[key]!r} not in {TIERS}")


def check_noise(records, what):
    """Every *_noise field is a relative spread: a finite number >= 0."""
    for r in records:
        for key, value in r.items():
            if key.endswith("_noise"):
                require(
                    isinstance(value, (int, float)) and math.isfinite(value) and value >= 0,
                    f"{what} {key}={value!r} is not a finite number >= 0",
                )


def check_detector_latency(d, rs, baseline):
    require(len(rs) >= 40, f"{len(rs)} records, expected >= 40")
    require_keys(
        rs,
        ("detector", "qam", "dims", "ns_prepare", "ns_prepare_b16", "prepare_speedup16",
         "prepare_speedup16_noise", "ns_solve", "ns_solve_b4", "ns_solve_b16",
         "ns_solve_b48", "batch_speedup48", "batch_speedup48_noise", "ns_oneshot",
         "ns_solve_soft", "ns_solve_soft_b48", "searches_per_soft"),
        "latency",
    )
    require(all(r["ns_prepare"] > 0 and r["ns_solve"] > 0 for r in rs),
            "ns_prepare and ns_solve must be > 0")
    require(all(r["ns_prepare_b16"] > 0 and r["prepare_speedup16"] > 0 for r in rs),
            "ns_prepare_b16 and prepare_speedup16 must be > 0")
    require(all(r["ns_solve_b48"] > 0 and r["batch_speedup48"] > 0 for r in rs),
            "ns_solve_b48 and batch_speedup48 must be > 0")
    soft = [r for r in rs if r["detector"].startswith("soft-geosphere")]
    require(soft, "no soft-geosphere records")
    require(all(r["ns_solve_soft"] > 0 and r["ns_solve_soft_b48"] > 0 for r in soft),
            "soft detectors need ns_solve_soft and ns_solve_soft_b48 > 0")
    require(all(r["searches_per_soft"] == 1.0 for r in soft if "sts" in r["detector"]),
            "soft-geosphere-sts must run exactly one tree search per vector")
    require(all(r["searches_per_soft"] > 1.0 for r in soft if "sts" not in r["detector"]),
            "repeated-search soft-geosphere must run more than one tree search")
    require(all(r["ns_solve_soft"] == 0 for r in rs
                if not r["detector"].startswith("soft-geosphere")),
            "hard-only detectors must record ns_solve_soft == 0")
    return f"{len(rs)} records"


def check_serving_latency(d, rs, baseline):
    require(len(rs) >= 1, "no records")
    require_keys(
        rs,
        ("threads", "frames", "p50_ns", "p90_ns", "p99_ns", "max_ns", "goodput_mbps",
         "wall_s"),
        "serving",
    )
    require(all(r["p50_ns"] > 0 and r["p99_ns"] >= r["p50_ns"] and r["frames"] > 0
                and r["wall_s"] > 0 for r in rs),
            "need p50_ns > 0, p99_ns >= p50_ns, frames > 0 and wall_s > 0")
    return f"{len(rs)} records"


def check_soft_llr_quality(d, rs, baseline):
    require(d["llr_diff_bound"] == 0.0, "llr_diff_bound must be 0.0")
    require(len(rs) >= 8, f"{len(rs)} points, expected >= 8")
    require_keys(
        rs,
        ("qam", "snr_db", "frames", "info_bits", "ber_repeated", "ber_sts",
         "max_abs_llr_diff", "searches_per_vector_repeated", "searches_per_vector_sts",
         "ped_per_vector_repeated", "ped_per_vector_sts", "ns_soft_repeated",
         "ns_soft_sts", "sts_speedup"),
        "soft_llr",
    )
    require(all(r["max_abs_llr_diff"] == 0.0 for r in rs),
            "STS LLRs must equal the repeated search's exactly")
    require(all(r["ber_sts"] == r["ber_repeated"] for r in rs),
            "ber_sts must equal ber_repeated at every point")
    require(all(r["searches_per_vector_sts"] == 1.0 for r in rs),
            "STS must run exactly one tree search per vector")
    require(all(r["searches_per_vector_repeated"] > 1.0 for r in rs),
            "the repeated search must run more than one tree search per vector")
    return f"{len(rs)} points, exact LLR/BER parity"


def check_coded_throughput(d, rs, baseline):
    require(len(rs) >= 9, f"{len(rs)} points, expected >= 9")
    require(d["ber_bound"] > 0 and d["info_bits_per_frame"] > 0,
            "ber_bound and info_bits_per_frame must be > 0")
    require_keys(
        rs,
        ("code", "snr_db", "frames", "info_bits", "ber_double", "ber_quantized",
         "ber_delta", "ns_per_bit_double", "ns_per_bit_double_noise",
         "ns_per_bit_quantized", "ns_per_bit_quantized_noise", "quantized_speedup"),
        "coded",
    )
    require(all(r["ber_delta"] <= d["ber_bound"] for r in rs),
            f"ber_delta exceeds ber_bound {d['ber_bound']}")
    require(all(r["ns_per_bit_quantized"] > 0 for r in rs),
            "ns_per_bit_quantized must be > 0")
    tiers = d["tiers"]
    require_keys(tiers, ("name", "ns_per_info_bit", "ns_per_info_bit_noise"), "tier")
    require({t["name"] for t in tiers} >= {"scalar"}, "the scalar tier must be timed")
    check_noise(tiers, "tier")
    if baseline:
        speedups = [r["quantized_speedup"] for r in rs]
        require(all(s >= 3.0 for s in speedups),
                f"baseline quantized_speedup below the 3x floor: {speedups}")
    return f"{len(rs)} points, tier {d['host']['viterbi_tier']}"


# bench name -> (checks, host keys that bench has written since its first
# committed baseline).
BENCHES = {
    "detector_latency": (
        check_detector_latency,
        ("compiler", "flags", "geosphere_native", "simd_tier", "simd_width",
         "hardware_concurrency"),
    ),
    "serving_latency": (
        check_serving_latency,
        ("compiler", "flags", "geosphere_native", "hardware_concurrency"),
    ),
    "soft_llr_quality": (
        check_soft_llr_quality,
        ("compiler", "flags", "geosphere_native", "simd_tier"),
    ),
    "coded_throughput": (
        check_coded_throughput,
        ("compiler", "flags", "geosphere_native", "viterbi_tier"),
    ),
}


def check(path, baseline):
    with open(path) as f:
        d = json.load(f)
    bench = d.get("bench")
    require(bench in BENCHES, f"unknown bench {bench!r} (known: {', '.join(BENCHES)})")
    checks, baseline_host_keys = BENCHES[bench]
    check_host(d["host"], baseline_host_keys if baseline else tuple(HOST_TYPES))
    rs = d["results"]
    check_noise(rs, "result")
    summary = checks(d, rs, baseline)
    return f"{bench} {summary}, host {d['host']['compiler']}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file")
    parser.add_argument("--baseline", action="store_true",
                        help="the file is a committed BENCH_*.json baseline")
    args = parser.parse_args()
    try:
        summary = check(args.file, args.baseline)
    except (CheckError, KeyError, TypeError, ValueError) as e:
        print(f"{args.file}: FAILED: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print(f"{args.file} OK: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
