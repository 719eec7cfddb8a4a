"""Command-line interface: spectra, codebooks, diagrams, and reproduction runs.

Every run that writes an output file also writes a ``<name>.manifest.json``
beside it recording the full configuration, so results can be regenerated.
CSV outputs use the fixed header ``f,psd_continuous``; discrete spectral
lines and exact rationals go to JSON sidecars, with rationals rendered as
"num/den" strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, clocked, cyclo, oracle, presets, spectrum
from .codebook import Codebook, ConstraintFamily, enumerate_codebook
from .fstd import build_grid_fstd, build_infinite_fstd

CSV_HEADER = "f,psd_continuous"


def _frac_str(v):
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}"


def _family(args):
    return ConstraintFamily(args.family, args.x, args.m)


def positive_int(text):
    """Argument type for counts: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"invalid positive_int value: {text!r}")
    return value


def _write_manifest(out_path, args, extra=None):
    config = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "tool": "ccpsd",
        "version": __version__,
        "config": config,
        "output": os.path.basename(str(out_path)),
    }
    if extra:
        manifest.update(extra)
    path = Path(str(out_path) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str))


def _write_json(args, payload):
    """Write the payload and its manifest to ``--out`` when it is given."""
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2))
        _write_manifest(args.out, args)


def _write_csv(path, freqs, values):
    lines = [CSV_HEADER]
    lines += [f"{f:.12g},{v:.12g}" for f, v in zip(freqs, values)]
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_codebook(args):
    fam = _family(args)
    cb = enumerate_codebook(fam)
    if args.out:
        _write_json(args, {
            "family": fam.kind, "m": fam.m, "x": fam.x, "N": cb.N,
            "words": cb.as_bitstrings(),
        })
    print(f"{fam.kind} m={fam.m} x={fam.x}: {cb.N} codewords")
    return 0


def cmd_fstd(args):
    fam = _family(args)
    if fam.m is None:
        diagram = build_infinite_fstd(fam)
    else:
        diagram = build_grid_fstd(Codebook(fam), merge=not args.no_merge)
    payload = {
        "family": fam.kind, "m": fam.m, "x": fam.x,
        "states": [
            {"position": str(s.position), "history": s.history_str(),
             "labeled": s.labeled}
            for s in diagram.states
        ],
        "edges": [
            {"from": f, "to": t, "symbol": sym, "probability": _frac_str(p)}
            for f, t, sym, p in diagram.edges
        ],
    }
    _write_json(args, payload)
    print(f"{len(diagram.states)} states, {len(diagram.edges)} edges")
    return 0


def cmd_ostm(args):
    fam = _family(args)
    tm = presets.transfer_matrix_for(fam, method=args.method)
    payload = {
        "family": fam.kind, "m": fam.m, "x": fam.x, "n": tm.n,
        "labels": [str(l) for l in tm.labels],
        "entries": [
            [{"num": [_frac_str(c) for c in e.num],
              "den": [_frac_str(c) for c in e.den]} for e in row]
            for row in tm.entries
        ],
    }
    _write_json(args, payload)
    print(f"{tm.n} x {tm.n} transfer matrix ({tm.origin})")
    return 0


def cmd_psd(args):
    fam = _family(args)
    freqs = spectrum.default_grid(args.points)
    vals, lines = presets.psd_and_lines(fam, freqs,
                                        with_pulse=not args.no_pulse)
    out = args.out or f"psd_{fam.kind}_x{fam.x}" + (
        f"_m{fam.m}" if fam.m else "") + ".csv"
    _write_csv(out, freqs, vals)
    sidecar = Path(out).with_suffix(".lines.json")
    sidecar.write_text(json.dumps(
        {"lines": [{"f": f, "weight": w} for f, w in lines]}, indent=2))
    _write_manifest(out, args, {"sidecar": sidecar.name})
    print(f"wrote {out} ({args.points} points)")
    return 0


def cmd_autocorr(args):
    fam = _family(args)
    if fam.m is None:
        raise ValueError("autocorrelation export applies to fixed-length families")
    cb = enumerate_codebook(fam)
    series = cyclo.exact_autocorr(cb, args.signal)
    payload = {
        "family": fam.kind, "m": fam.m, "x": fam.x, "period": series.period,
        "signal": args.signal,
        "total": [_frac_str(v) for v in series.total],
        "periodic": [_frac_str(v) for v in series.periodic],
        "aperiodic": [_frac_str(v) for v in series.aperiodic],
    }
    _write_json(args, payload)
    print("periodic:", [round(float(v), 4) for v in series.periodic[: series.period]])
    return 0


def cmd_bandwidth(args):
    fam = _family(args)
    bw = presets.bandwidth(fam)
    _write_json(args, {"family": fam.kind, "m": fam.m, "x": fam.x,
                       "bandwidth_3db": bw})
    print(f"{bw:.3f}")
    return 0


def cmd_mc(args):
    fam = _family(args)
    if args.against:
        rows = Path(args.against).read_text().strip().splitlines()
        if not rows or rows[0] != CSV_HEADER:
            raise ValueError("unexpected CSV header in theory file")
        data = [[float(v) for v in r.split(",")] for r in rows[1:]]
        if not data or any(len(r) != 2 for r in data) \
                or not np.isfinite(data).all():
            raise ValueError("theory file rows must hold two finite numbers")
        freqs, theory = np.array(data).T
        with_pulse = True
    else:
        freqs = spectrum.default_grid(args.points)
        theory = presets.continuous_psd(fam, freqs, with_pulse=False)
        with_pulse = False
    stream = oracle.generate_stream(
        oracle.StreamConfig(fam, args.symbols, args.seed))
    est = oracle.estimate_psd(stream, freqs, family=fam, with_pulse=with_pulse)
    report = oracle.deviation_report(est, theory, freqs)
    report.update({"family": fam.kind, "m": fam.m, "x": fam.x,
                   "seed": args.seed, "symbols": args.symbols})
    _write_json(args, report)
    print(f"max deviation {report['max_abs_deviation']:.5f} "
          f"over {report['points']} points")
    return 0


def cmd_clocked_ostd(args):
    fam = _family(args)
    diagram = build_grid_fstd(Codebook(fam))
    inputs = clocked.clocked_inputs_from_fstd(diagram)
    edges = clocked.bfs_ostd(inputs)
    payload = {
        "family": fam.kind, "m": fam.m, "x": fam.x, "k_eff": inputs.k_eff,
        "edges": [
            {"from": a, "to": b,
             "runs": [{"steps": t, "probability": _frac_str(p)} for t, p in runs]}
            for (a, b), runs in sorted(edges.items())
        ],
    }
    _write_json(args, payload)
    print(f"{len(edges)} labeled-to-labeled edges, k_eff={inputs.k_eff}")
    return 0


def cmd_reproduce(args):
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {"pass": [], "fail": [], "known_deviations": []}

    # bandwidth tables
    for name, kind, table in [("table1", "aloco", presets.TABLE_I_BANDWIDTH),
                              ("table2", "loco", presets.TABLE_II_BANDWIDTH)]:
        rows = ["m,x,bandwidth_3db,golden,abs_error"]
        for (m, x), golden in table.items():
            bw = presets.bandwidth(ConstraintFamily(kind, x, m))
            err = abs(bw - golden)
            rows.append(f"{m},{x},{bw:.4f},{golden},{err:.4f}")
            key = f"{name} ({m},{x})"
            if err <= 0.002:
                summary["pass"].append(key)
            elif (kind, m, x) in presets.KNOWN_BANDWIDTH_DEVIATIONS:
                summary["known_deviations"].append(
                    {"entry": key, "computed": round(bw, 4), "golden": golden})
            else:
                summary["fail"].append(key)
        (outdir / f"{name}.csv").write_text("\n".join(rows) + "\n")

    # periodic autocorrelation fixture
    fam = ConstraintFamily("aloco", 1, 4)
    series = presets.autocorr_for(fam)
    got = [float(v) for v in series.periodic[:5]]
    ok = all(abs(g - t) <= 1e-4 for g, t in zip(got, presets.AC41_PERIODIC))
    (outdir / "ac41_periodic.json").write_text(json.dumps(
        {"computed": got, "golden": list(presets.AC41_PERIODIC),
         "pass": ok}, indent=2))
    summary["pass" if ok else "fail"].append("ac41_periodic")

    # spectra for the plotted presets
    freqs = spectrum.default_grid(args.points)
    spectra = ([("ax", x, None) for x in range(1, 6)]
               + [("sx", x, None) for x in range(1, 6)]
               + [(kind, x, m) for kind in ("aloco", "loco")
                  for (m, x) in presets.TABLE_I_BANDWIDTH])
    for kind, x, m in spectra:
        fam = ConstraintFamily(kind, x, m)
        vals = presets.continuous_psd(fam, freqs)
        name = f"psd_{kind}_x{x}" + (f"_m{m}" if m else "") + ".csv"
        _write_csv(outdir / name, freqs, vals)

    (outdir / "summary.json").write_text(json.dumps(summary, indent=2))
    _write_manifest(outdir / "summary.json", args)
    n_fail = len(summary["fail"])
    print(f"{len(summary['pass'])} pass, {n_fail} fail, "
          f"{len(summary['known_deviations'])} known deviations")
    return 1 if n_fail else 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="ccpsd",
        description="Power spectral densities of binary constrained codes")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, families):
        sp = sub.add_parser(name)
        sp.add_argument("--family", required=True, choices=families)
        sp.add_argument("--x", type=int, default=None)
        sp.add_argument("--m", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=fn)
        return sp

    finite = ["aloco", "loco", "caloco", "cloco"]
    all_fams = ["iid", "ax", "sx"] + finite

    add("codebook", cmd_codebook, finite)
    sp = add("fstd", cmd_fstd, ["ax", "sx"] + finite)
    sp.add_argument("--no-merge", action="store_true")
    sp = add("ostm", cmd_ostm, ["ax", "sx"] + finite)
    sp.add_argument("--method", choices=["auto", "closed", "grid"],
                    default="auto")
    sp = add("psd", cmd_psd, all_fams)
    sp.add_argument("--points", type=positive_int, default=2048)
    sp.add_argument("--no-pulse", action="store_true")
    sp = add("autocorr", cmd_autocorr, finite)
    sp.add_argument("--signal", choices=["y", "x"], default="y")
    add("bandwidth", cmd_bandwidth, ["ax", "sx"] + finite)
    sp = add("mc", cmd_mc, all_fams)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--symbols", type=positive_int, default=10_000_000)
    sp.add_argument("--points", type=positive_int, default=256)
    sp.add_argument("--against", default=None)
    add("clocked-ostd", cmd_clocked_ostd, ["caloco", "cloco"])
    sp = sub.add_parser("reproduce-paper")
    sp.add_argument("--outdir", default="artifacts")
    sp.add_argument("--points", type=positive_int, default=2048)
    sp.set_defaults(func=cmd_reproduce)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "x", 0) is None:
        args.x = 0 if args.family == "iid" else 1
    try:
        return args.func(args)
    except (ValueError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
