"""The benchmark's workloads: the tasks each one issues and the checks on them.

Every workload is a closed loop: one caller issues its tasks one after
another and checks each result before the next.  Each check yields one
outcome; a task that raises is a failed check.  Check ids read
``<family>/<route>``.

Only the Monte-Carlo stream seeds depend on the workload seed: stream seed =
the acceptance suite's per-case seed + ``seed``, so ``DEFAULT_SEED`` gives the
suite's own streams and ``HELD_OUT_SEED`` is kept for checking a claimed gain
on streams not used while the change was written.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction

import numpy as np

import ccpsd.cli
from ccpsd import clocked, codebook, cyclo, fstd, oracle, presets, spectrum, transfer
from ccpsd.codebook import ConstraintFamily
from ccpsd.ratfn import ZERO, RationalFn

DEFAULT_SEED = 0
HELD_OUT_SEED = 101

ROUTE_TOL = 1e-9
MC_TOL = 0.02

# Known defects of the self-clocked model (ROADMAP direction 4): the grid
# state (column, last x+1 bits) cannot exclude the all-zero and all-one
# words, so the grid route disagrees with the autocorrelation route by
# 0.08-0.21, and for caloco the BFS finds mass not absorbed within k_eff+1
# steps.  They count as failed checks; a check listed here that passes is
# reported as fixed.
KNOWN_FAILURES = (
    {f"{k}(x=1,m={m})/grid" for k in ("caloco", "cloco") for m in range(4, 9)}
    | {f"{k}(x=2,m={m})/grid" for k in ("caloco", "cloco") for m in range(5, 9)}
    | {f"caloco(x=1,m={m})/bfs" for m in range(4, 9)}
    | {f"caloco(x=2,m={m})/bfs" for m in range(5, 9)}
)

# The acceptance suite's Monte-Carlo cases: (kind, x, m), lag cutoff, seed.
# The sx x >= 2 cases are strict xfails there; here they are reported as
# known deviations with the measured deviation, not counted as checks.
MC_CASES = [
    (("ax", 1, None), 48, 1), (("ax", 2, None), 48, 1),
    (("ax", 3, None), 48, 1), (("ax", 4, None), 64, 1),
    (("ax", 5, None), 64, 2), (("sx", 1, None), 48, 1),
    (("sx", 2, None), 64, 1), (("sx", 3, None), 128, 1),
    (("sx", 4, None), 192, 1), (("sx", 5, None), 256, 1),
    (("aloco", 1, 4), None, 1), (("loco", 1, 4), None, 1),
    (("iid", 0, None), 64, 1),
]
MC_KNOWN_DEVIATIONS = {("sx", x, None) for x in (2, 3, 4, 5)}

# Sizes per scale; "smoke" runs every check at reduced size.
SCALES = {
    "full": {
        "paper_points": None,  # the CLI default, 2048
        "closed_forms": [("aloco", 18, 1), ("aloco", 14, 2), ("loco", 18, 1)],
        "grid_m": 14, "autocorr_m": 16, "symbolic_x": (3, 4),
        "bfs": ("cloco", 2, 10),
        "cross_m": 8, "cross_x_inf": 4, "mc_symbols": 10_000_000,
        "cli_symbols": 10_000_000, "cli_points": 2048,
    },
    "smoke": {
        "paper_points": 64,
        "closed_forms": [("aloco", 8, 1), ("aloco", 6, 2), ("loco", 8, 1)],
        "grid_m": 6, "autocorr_m": 8, "symbolic_x": (1, 2),
        "bfs": ("cloco", 2, 5),
        "cross_m": 5, "cross_x_inf": 2, "mc_symbols": 20_000,
        "cli_symbols": 20_000, "cli_points": 64,
    },
}


def fam_id(fam):
    if fam.kind == "iid":
        return "iid"
    if fam.m is None:
        return f"{fam.kind}(x={fam.x})"
    return f"{fam.kind}(x={fam.x},m={fam.m})"


class Recorder:
    """Outcomes of one workload pass."""

    def __init__(self, clock):
        self.clock = clock  # speed.Clock; it may time the reference kernel
        self.checks = []  # {"id", "kind", "ok", "detail"}
        self.deviations = []  # known Monte-Carlo deviations, measured
        self.cli_bytes = 0

    def check(self, cid, fn, kind="exact"):
        """Run ``fn`` -> (ok, detail); an exception is a failed check."""
        self.clock.tick()
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.checks.append({"id": cid, "kind": kind, "ok": bool(ok),
                            "known": cid in KNOWN_FAILURES,
                            "detail": str(detail)[:200]})
        return ok


def _max_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _close(a, b, tol=ROUTE_TOL):
    d = _max_diff(a, b)
    return d <= tol, f"max |diff| {d:.3g}"


def _closed_form(fam):
    """The family's closed-form transfer matrix."""
    if fam.m is None:
        make = transfer.closed_form_ax if fam.kind == "ax" else transfer.closed_form_sx
        return make(fam.x)
    make = (transfer.closed_form_aloco if fam.kind == "aloco"
            else transfer.closed_form_loco_A)
    return make(fam.m, fam.x)


def _run_cli(argv):
    """``ccpsd.cli.main`` in process; returns (exit code, captured output)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ccpsd.cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


# ---------------------------------------------------------------------------
# paper
# ---------------------------------------------------------------------------


def paper(rec, size, seed, workdir):
    """``ccpsd reproduce-paper``, as a reader of the paper runs it."""
    outdir = os.path.join(workdir, "paper")
    argv = ["reproduce-paper", "--outdir", outdir]
    if size["paper_points"]:
        argv += ["--points", str(size["paper_points"])]

    def exit_code():
        code, text = _run_cli(argv)
        return code == 0, f"exit {code}: {text.strip()[-120:]}"

    rec.check("paper/exit", exit_code)

    def summary():
        with open(os.path.join(outdir, "summary.json")) as fh:
            s = json.load(fh)
        got = (len(s["pass"]), len(s["fail"]), len(s["known_deviations"]))
        return got == (13, 0, 6), f"pass/fail/known {got}"

    def curves():
        points = size["paper_points"] or 2048
        names = [n for n in os.listdir(outdir) if n.startswith("psd_")]
        for name in names:
            with open(os.path.join(outdir, name)) as fh:
                rows = fh.read().split()
            vals = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
            if rows[0] != ccpsd.cli.CSV_HEADER or vals.shape != (points, 2) \
                    or not np.all(np.isfinite(vals)):
                return False, f"{name}: malformed"
        return len(names) == 28, f"{len(names)} curves of {points} points"

    rec.check("paper/summary", summary)
    rec.check("paper/curves", curves)
    rec.cli_bytes += _dir_bytes(outdir)


# ---------------------------------------------------------------------------
# exact_scale
# ---------------------------------------------------------------------------


def _prob_one_from_words(cb):
    """Density of labeled symbols counted directly from the codebook."""
    fam = cb.family
    m, x, n = fam.m, fam.x, cb.N
    if fam.bridging == "z_symbols":
        # flipped indicator stream: word zeros, and the bridges read 1
        per_period = Fraction(sum(m - sum(w) for w in cb.words), n) + x
    else:
        last = Fraction(sum(w[-1] for w in cb.words), n)
        first = Fraction(sum(w[0] for w in cb.words), n)
        per_period = Fraction(sum(sum(w) for w in cb.words), n) + x * last * first
    return per_period / (m + x)


def _conserved(edges, k_eff):
    totals = {}
    for (src, _), runs in edges.items():
        for steps, p in runs:
            if steps > k_eff + 1:
                return False, f"run of {steps} steps exceeds k_eff+1"
            totals[src] = totals.get(src, Fraction(0)) + p
    bad = [s for s, t in totals.items() if t != 1]
    return not bad, f"{len(totals)} sources, unconserved {bad}"


def exact_scale(rec, size, seed, workdir):
    """Large exact structures at few or no frequency points."""
    for kind, m, x in size["closed_forms"]:
        fam = ConstraintFamily(kind, x, m)

        def closed_form_prob_one(fam=fam):
            p1 = spectrum.prob_one(_closed_form(fam))
            want = _prob_one_from_words(codebook.enumerate_codebook(fam))
            return p1 == want, f"prob_one {p1}, codebook count {want}"

        rec.check(f"{fam_id(fam)}/closed", closed_form_prob_one)

    fam = ConstraintFamily("aloco", 1, size["grid_m"])

    def grid_equals_closed():
        raw = fstd.build_grid_fstd(codebook.enumerate_codebook(fam), merge=False)
        merged = fstd.merge_equivalent_states(raw)
        grid = transfer.ostm_from_ostd(fstd.reduce_to_ostd(merged))
        return grid == transfer.closed_form_aloco(fam.m, fam.x), \
            f"{len(raw.states)} -> {len(merged.states)} states, order {grid.n}"

    rec.check(f"{fam_id(fam)}/grid", grid_equals_closed)

    fam = ConstraintFamily("aloco", 1, size["autocorr_m"])

    def autocorr():
        series = cyclo.exact_autocorr(codebook.enumerate_codebook(fam), "y")
        reach = fam.m + 2 * fam.x - 1
        tail = [k for k, v in enumerate(series.aperiodic) if k > reach and v != 0]
        return series.total[0] == 1 and not tail, \
            f"R(0)={series.total[0]}, aperiodic beyond {reach}: {tail[:3]}"

    rec.check(f"{fam_id(fam)}/autocorr", autocorr)

    freqs = spectrum.default_grid(8)
    for kind in ("ax", "sx"):
        for x in size["symbolic_x"]:
            fam = ConstraintFamily(kind, x)

            def symbolic(fam=fam):
                tm = _closed_form(fam)
                sym = spectrum.spectrum_x_symbolic(tm)
                z = np.exp(-2j * np.pi * freqs)
                vals = [sym.evaluate(complex(v)).real for v in z]
                ok, detail = _close(vals, spectrum.spectrum_x(tm, freqs))
                even = sym == sym.substitute_inverse()
                return ok and even, f"{detail}; even in D<->1/D: {even}"

            rec.check(f"{fam_id(fam)}/symbolic", symbolic)

    kind, x, m = size["bfs"]
    fam = ConstraintFamily(kind, x, m)

    def bfs():
        diagram = fstd.build_grid_fstd(codebook.enumerate_codebook(fam))
        inputs = clocked.clocked_inputs_from_fstd(diagram)
        return _conserved(clocked.bfs_ostd(inputs), inputs.k_eff)

    rec.check(f"{fam_id(fam)}/bfs", bfs)


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------


def _bfs_matrix(fam, diagram):
    """Transfer matrix of the clocked BFS run-length distributions."""
    inputs = clocked.clocked_inputs_from_fstd(diagram)
    edges = clocked.bfs_ostd(inputs)
    n = sum(inputs.labeled)
    entries = [[ZERO] * n for _ in range(n)]
    for (a, b), runs in edges.items():
        for steps, p in runs:
            entries[a][b] = entries[a][b] + RationalFn.monomial(p, steps)
    return transfer.TransferMatrix(fam, entries, list(range(n)), origin="bfs")


def _finite_routes(rec, fam, freqs):
    """Exact routes of one fixed-length family, against the autocorrelation."""
    fid = fam_id(fam)
    got = {}

    def autocorr():
        got["cb"] = codebook.enumerate_codebook(fam)
        series = cyclo.exact_autocorr(got["cb"], "y")
        got["ref"] = cyclo.continuous_psd_from_aperiodic(series, freqs,
                                                         with_pulse=False)
        # bridges sit at level 0 for z-symbol bridging, at +-1 otherwise
        lit = fam.m + (fam.x if fam.bridging == "zeros_or_ones" else 0)
        want = Fraction(lit, fam.m + fam.x)
        return series.total[0] == want, f"R(0)={series.total[0]}"

    def against_ref(tm):
        if "ref" not in got:
            return False, "autocorrelation route unavailable"
        return _close(spectrum.spectrum_y(tm, freqs), got["ref"])

    rec.check(f"{fid}/autocorr", autocorr)
    if fam.kind in ("aloco", "loco") and fam.m >= fam.x + 2:
        rec.check(f"{fid}/closed", lambda: against_ref(_closed_form(fam)))

    def grid():
        got["diagram"] = fstd.build_grid_fstd(got["cb"])
        tm = transfer.ostm_from_ostd(fstd.reduce_to_ostd(got["diagram"]))
        got["grid"] = spectrum.spectrum_y(tm, freqs)
        return against_ref(tm)

    rec.check(f"{fid}/grid", grid)
    if fam.kind in codebook.CLOCKED_KINDS:
        def bfs():
            # BFS reduces the same per-bit diagram: compare with its OSTD
            if "grid" not in got:
                return False, "grid route unavailable"
            tm = _bfs_matrix(fam, got["diagram"])
            return _close(spectrum.spectrum_y(tm, freqs), got["grid"])

        rec.check(f"{fid}/bfs", bfs)


def _infinite_routes(rec, fam, freqs):
    def grid():
        closed = spectrum.spectrum_y(_closed_form(fam), freqs)
        tm = transfer.ostm_from_ostd(fstd.reduce_to_ostd(
            fstd.build_infinite_fstd(fam)))
        return _close(spectrum.spectrum_y(tm, freqs), closed)

    rec.check(f"{fam_id(fam)}/grid", grid)


def _monte_carlo(rec, size, seed):
    freqs = spectrum.default_grid(128)
    for (kind, x, m), kmax, case_seed in MC_CASES:
        fam = ConstraintFamily(kind, x, m)
        stream_seed = case_seed + seed

        def deviation(fam=fam, kmax=kmax, stream_seed=stream_seed):
            stream = oracle.generate_stream(oracle.StreamConfig(
                fam, n_symbols=size["mc_symbols"], seed=stream_seed))
            est = oracle.estimate_psd(stream, freqs, family=fam, kmax=kmax)
            if fam.kind == "iid":
                theory = np.ones(len(freqs))
            else:
                theory = presets.continuous_psd(fam, freqs, with_pulse=False)
            return _max_diff(est, theory)

        cid = f"{fam_id(fam)}/mc"
        if (kind, x, m) in MC_KNOWN_DEVIATIONS:
            try:
                d = deviation()
            except Exception as exc:  # reported as a failed check
                rec.check(cid, lambda exc=exc: (False, f"{type(exc).__name__}: {exc}"))
            else:
                rec.deviations.append({"id": cid, "seed": stream_seed,
                                       "deviation": round(d, 5)})
            continue

        def mc(deviation=deviation, stream_seed=stream_seed):
            d = deviation()
            return d < MC_TOL, f"max deviation {d:.4f} (stream seed {stream_seed})"

        rec.check(cid, mc, kind="statistical")


def _cli_examples(rec, size, seed, workdir):
    """The README's CLI examples other than reproduce-paper."""

    def json_out(name):
        with open(os.path.join(workdir, name)) as fh:
            data = json.load(fh)
        with open(os.path.join(workdir, name + ".manifest.json")) as fh:
            json.load(fh)
        return data

    def psd_out():
        with open(os.path.join(workdir, "psd.csv")) as fh:
            rows = fh.read().split()
        for sidecar in ("psd.lines.json", "psd.csv.manifest.json"):
            with open(os.path.join(workdir, sidecar)) as fh:
                json.load(fh)
        vals = [[float(v) for v in r.split(",")] for r in rows[1:]]
        return rows[0] == ccpsd.cli.CSV_HEADER and len(vals) == size["cli_points"]

    def path(name):
        return os.path.join(workdir, name)

    examples = [
        ("codebook", ["--family", "aloco", "--x", "1", "--m", "4",
                      "--out", path("words.json")],
         lambda out: json_out("words.json")["N"] == 12),
        ("fstd", ["--family", "loco", "--x", "1", "--m", "4",
                  "--out", path("diagram.json")],
         lambda out: len(json_out("diagram.json")["states"]) > 0),
        ("ostm", ["--family", "aloco", "--x", "1", "--m", "4",
                  "--method", "closed", "--out", path("g.json")],
         lambda out: json_out("g.json")["n"] == 5),
        ("psd", ["--family", "ax", "--x", "2",
                 "--points", str(size["cli_points"]), "--out", path("psd.csv")],
         lambda out: psd_out()),
        ("autocorr", ["--family", "aloco", "--x", "1", "--m", "4",
                      "--out", path("autocorr.json")],
         lambda out: json_out("autocorr.json")["period"] == 5),
        ("bandwidth", ["--family", "loco", "--x", "1", "--m", "10"],
         lambda out: 0 < float(out.split()[-1]) < 1),
        ("mc", ["--family", "sx", "--x", "1", "--seed", str(7 + seed),
                "--symbols", str(size["cli_symbols"]), "--out", path("mc.json")],
         lambda out: json_out("mc.json")["points"] == 256),
        ("clocked-ostd", ["--family", "caloco", "--x", "1", "--m", "2",
                          "--out", path("clocked.json")],
         lambda out: len(json_out("clocked.json")["edges"]) > 0),
    ]
    for command, args, parses in examples:
        def run(command=command, args=args, parses=parses):
            code, out = _run_cli([command] + args)
            if code != 0:
                return False, f"exit {code}: {out[-120:]}"
            return bool(parses(out)), f"exit 0; output: {out.strip()[-80:]}"

        rec.check(f"cli/{command}", run)
    rec.cli_bytes += _dir_bytes(workdir)


def crosscheck(rec, size, seed, workdir):
    """Every CLI family at small sizes through every route that applies."""
    freqs = spectrum.default_grid(64)
    rec.check("iid/closed", lambda: _close(
        spectrum.spectrum_y(transfer.iid_matrix(), freqs), np.ones(len(freqs))))
    for kind in ("ax", "sx"):
        for x in range(1, size["cross_x_inf"] + 1):
            _infinite_routes(rec, ConstraintFamily(kind, x), freqs)
    for kind in ("aloco", "loco", "caloco", "cloco"):
        low = 2 if kind in codebook.CLOCKED_KINDS else 1
        for x in (1, 2):
            for m in range(low, size["cross_m"] + 1):
                _finite_routes(rec, ConstraintFamily(kind, x, m), freqs)
    _monte_carlo(rec, size, seed)
    cli_dir = os.path.join(workdir, "cli")
    os.makedirs(cli_dir)
    _cli_examples(rec, size, seed, cli_dir)


WORKLOADS = {"paper": paper, "exact_scale": exact_scale, "crosscheck": crosscheck}

# Layers each workload is known to reach; a layer that records no call on
# its workload means a wrapper missed a binding.
USES = {
    "paper": {"ratfn", "codebook", "transfer", "spectrum", "cyclo",
              "presets", "cli"},
    "exact_scale": {"ratfn", "codebook", "fstd", "transfer", "spectrum",
                    "cyclo", "clocked"},
    "crosscheck": {"ratfn", "codebook", "fstd", "transfer", "spectrum",
                   "cyclo", "clocked", "oracle", "presets", "cli"},
}

# Exact work counters: repeat exactly across runs of the same code, and
# nonzero on the workloads listed.
EXACT_COUNTERS = {
    "ratfn.evaluate_calls": {"paper", "exact_scale", "crosscheck"},
    "codebook.words_enumerated": {"paper", "exact_scale", "crosscheck"},
    "fstd.states_raw": {"exact_scale", "crosscheck"},
    "spectrum.points": {"paper", "exact_scale", "crosscheck"},
    "oracle.symbols": {"crosscheck"},
}


def run(name, scale, seed, workdir, clock):
    rec = Recorder(clock)
    WORKLOADS[name](rec, SCALES[scale], seed, workdir)
    clock.tick(final=True)
    return rec
