"""Command-line interface: spectra, codebooks, diagrams, and reproduction runs.

Every file goes through ``_write``.  Each command's main output gets a
``<name>.manifest.json`` beside it recording the full configuration, so
results can be regenerated: the ``--out`` file of a JSON command, the CSV of
``psd`` (its manifest names the ``.lines.json`` sidecar) and the
``summary.json`` of ``reproduce-paper``.  CSV outputs use the fixed header
``f,psd_continuous``; discrete spectral lines and exact rationals go to JSON,
with rationals rendered as "num/den" strings.
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
from .codebook import (CLOCKED_KINDS, FINITE_KINDS, INFINITE_KINDS, KINDS,
                       Codebook, ConstraintFamily, enumerate_codebook)
from .fstd import build_grid_fstd, build_infinite_fstd

CSV_HEADER = "f,psd_continuous"


class UsageError(Exception):
    """Arguments that parse but cannot work together; exits 2 like argparse."""


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


def nonnegative_int(text):
    """Argument type for seeds: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"invalid nonnegative_int value: {text!r}")
    return value


def _write(path, payload, args=None, extra=None):
    """Write one output file: text as it is, anything else as JSON.

    Given the parsed ``args``, also write ``<path>.manifest.json`` with the
    tool version, the full configuration, the file's name and ``extra``.
    """
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    Path(path).write_text(text)
    if args is not None:
        manifest = {
            "tool": "ccpsd",
            "version": __version__,
            "config": {k: v for k, v in vars(args).items() if k != "func"},
            "output": os.path.basename(str(path)),
            **(extra or {}),
        }
        _write(f"{path}.manifest.json", json.dumps(
            manifest, indent=2, sort_keys=True, default=str))


def _finish(args, message, fields, lead=None):
    """End a JSON command: with ``--out``, write ``lead``, the family header
    and ``fields`` there; print ``message``; return exit code 0."""
    if args.out:
        _write(args.out, {**(lead or {}), "family": args.family, "m": args.m,
                          "x": args.x, **fields}, args)
    print(message)
    return 0


def _csv(freqs, values):
    """The text of a PSD curve file."""
    pairs = np.column_stack((freqs, values)).ravel().tolist()
    return f"{CSV_HEADER}\n" + "%.12g,%.12g\n" * (len(pairs) // 2) % tuple(pairs)


def _psd_name(fam):
    """Default file name of a family's PSD curve."""
    return f"psd_{fam.kind}_x{fam.x}" + (f"_m{fam.m}" if fam.m else "") + ".csv"


def cmd_codebook(args):
    fam = _family(args)
    cb = enumerate_codebook(fam)
    # N is counted; only the words of --out are listed
    fields = {"N": cb.N, "words": cb.as_bitstrings()} if args.out else {}
    return _finish(args, f"{fam.kind} m={fam.m} x={fam.x}: {cb.N} codewords",
                   fields)


def cmd_fstd(args):
    fam = _family(args)
    if fam.m is None:
        diagram = build_infinite_fstd(fam)
    else:
        diagram = build_grid_fstd(Codebook(fam), merge=not args.no_merge)
    message = f"{len(diagram.states)} states, {len(diagram.edges)} edges"
    return _finish(args, message, {
        "states": [
            {"position": str(s.position), "history": s.history_str(),
             "labeled": s.labeled}
            for s in diagram.states
        ],
        "edges": [
            {"from": f, "to": t, "symbol": sym, "probability": _frac_str(p)}
            for f, t, sym, p in diagram.edges
        ],
    })


def cmd_ostm(args):
    tm = presets.transfer_matrix_for(_family(args), method=args.method)
    return _finish(args, f"{tm.n} x {tm.n} transfer matrix ({tm.origin})", {
        "n": tm.n,
        "labels": [str(l) for l in tm.labels],
        "entries": [
            [{"num": [_frac_str(c) for c in e.num],
              "den": [_frac_str(c) for c in e.den]} for e in row]
            for row in tm.entries
        ],
    })


def cmd_psd(args):
    fam = _family(args)
    freqs = spectrum.default_grid(args.points)
    vals, lines = presets.psd_and_lines(fam, freqs,
                                        with_pulse=not args.no_pulse)
    out = args.out or _psd_name(fam)
    sidecar = Path(out).with_suffix(".lines.json")
    _write(sidecar, {"lines": [{"f": f, "weight": w} for f, w in lines]})
    _write(out, _csv(freqs, vals), args, {"sidecar": sidecar.name})
    print(f"wrote {out} ({args.points} points)")
    return 0


def cmd_autocorr(args):
    fam = _family(args)
    if fam.m is None:
        raise ValueError("autocorrelation export applies to fixed-length families")
    series = cyclo.exact_autocorr(enumerate_codebook(fam), args.signal)
    periodic = [round(float(v), 4) for v in series.periodic[: series.period]]
    return _finish(
        args, f"periodic: {periodic}",
        {"period": series.period, "signal": args.signal,
         "total": [_frac_str(v) for v in series.total],
         "periodic": [_frac_str(v) for v in series.periodic],
         "aperiodic": [_frac_str(v) for v in series.aperiodic]})


def cmd_bandwidth(args):
    bw = presets.bandwidth(_family(args))
    return _finish(args, f"{bw:.3f}", {"bandwidth_3db": bw})


def cmd_mc(args):
    fam = _family(args)
    shortest = oracle.default_kmax(fam) + 1
    if args.symbols < shortest:
        raise UsageError(
            f"argument --symbols: must be at least {shortest} for this"
            f" family (the estimator's lag cutoff is {shortest - 1})")
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
    return _finish(args, f"max deviation {report['max_abs_deviation']:.5f} "
                         f"over {report['points']} points",
                   {"seed": args.seed, "symbols": args.symbols}, lead=report)


def cmd_clocked_ostd(args):
    inputs = clocked.clocked_inputs_from_fstd(
        build_grid_fstd(Codebook(_family(args))))
    edges = clocked.bfs_ostd(inputs)
    message = f"{len(edges)} labeled-to-labeled edges, k_eff={inputs.k_eff}"
    return _finish(args, message, {
        "k_eff": inputs.k_eff,
        "edges": [
            {"from": a, "to": b,
             "runs": [{"steps": t, "probability": _frac_str(p)} for t, p in runs]}
            for (a, b), runs in sorted(edges.items())
        ],
    })


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
        _write(outdir / f"{name}.csv", "\n".join(rows) + "\n")

    # periodic autocorrelation fixture
    series = presets.autocorr_for(ConstraintFamily("aloco", 1, 4))
    got = [float(v) for v in series.periodic[:5]]
    ok = all(abs(g - t) <= 1e-4 for g, t in zip(got, presets.AC41_PERIODIC))
    _write(outdir / "ac41_periodic.json",
           {"computed": got, "golden": list(presets.AC41_PERIODIC), "pass": ok})
    summary["pass" if ok else "fail"].append("ac41_periodic")

    # spectra for the plotted presets
    freqs = spectrum.default_grid(args.points)
    spectra = ([("ax", x, None) for x in range(1, 6)]
               + [("sx", x, None) for x in range(1, 6)]
               + [(kind, x, m) for kind in ("aloco", "loco")
                  for (m, x) in presets.TABLE_I_BANDWIDTH])
    for kind, x, m in spectra:
        fam = ConstraintFamily(kind, x, m)
        _write(outdir / _psd_name(fam),
               _csv(freqs, presets.continuous_psd(fam, freqs)))

    _write(outdir / "summary.json", summary, args)
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

    coded = INFINITE_KINDS + FINITE_KINDS  # every family but iid

    add("codebook", cmd_codebook, FINITE_KINDS)
    sp = add("fstd", cmd_fstd, coded)
    sp.add_argument("--no-merge", action="store_true")
    sp = add("ostm", cmd_ostm, coded)
    sp.add_argument("--method", choices=["auto", "closed", "grid"],
                    default="auto")
    sp = add("psd", cmd_psd, KINDS)
    sp.add_argument("--points", type=positive_int, default=2048)
    sp.add_argument("--no-pulse", action="store_true")
    sp = add("autocorr", cmd_autocorr, FINITE_KINDS)
    sp.add_argument("--signal", choices=["y", "x"], default="y")
    add("bandwidth", cmd_bandwidth, coded)
    sp = add("mc", cmd_mc, KINDS)
    sp.add_argument("--seed", type=nonnegative_int, default=0)
    sp.add_argument("--symbols", type=positive_int, default=10_000_000)
    sp.add_argument("--points", type=positive_int, default=256)
    sp.add_argument("--against", default=None)
    add("clocked-ostd", cmd_clocked_ostd, CLOCKED_KINDS)
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
    except UsageError as exc:
        parser.error(str(exc))
    except (ValueError, NotImplementedError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
