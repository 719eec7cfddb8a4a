import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import ccpsd
from brute_force import brute_force_codebook
from ccpsd.cli import CSV_HEADER, _csv, main
from ccpsd.codebook import ConstraintFamily

# The directory that holds the imported package. The child runs in tmp_path,
# where a relative PYTHONPATH such as "src" would not resolve.
SRC_DIR = str(Path(ccpsd.__file__).resolve().parent.parent)


def run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ccpsd.cli"] + args,
                          cwd=cwd, env=env, capture_output=True, text=True)


# Edge values of float64 formatting, drawn often beside arbitrary floats.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e308, -1e308,
               float("nan"), float("inf"), -float("inf")]


@st.composite
def curves(draw, shapes):
    elements = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64))
    column = hnp.arrays(np.float64, draw(shapes), elements=elements)
    return draw(column), draw(column)


def assert_csv_equals_per_row_format(freqs, values):
    # Line by line, then the line count: a failure shows one short line, as
    # pytest's diff of two long texts that differ on many lines takes minutes.
    want = [CSV_HEADER] + [f"{a:.12g},{b:.12g}" for a, b in zip(freqs, values)]
    got = _csv(freqs, values).split("\n")
    for i, (g, w) in enumerate(zip(got, want + [""])):
        assert g == w, f"line {i}"
    assert len(got) == len(want) + 1


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(curves(st.integers(1, 64)))
def test_csv_equals_per_row_format(curve):
    assert_csv_equals_per_row_format(*curve)


# The default grid's length.  Shrinking or explaining a failing example of
# this shape takes minutes, so this test reports the first failing example
# as drawn; the shorter shapes above shrink.
@settings(max_examples=50, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate],
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(curves(st.just(2048)))
def test_csv_equals_per_row_format_at_2048_rows(curve):
    assert_csv_equals_per_row_format(*curve)


class TestPsdCommand:
    def test_csv_output_and_manifest(self, tmp_path):
        out = tmp_path / "a1.csv"
        r = run(["psd", "--family", "ax", "--x", "1", "--points", "32",
                 "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "f,psd_continuous"
        assert len(lines) == 33
        manifest = json.loads((tmp_path / "a1.csv.manifest.json").read_text())
        assert manifest["tool"] == "ccpsd"
        assert manifest["config"]["family"] == "ax"

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "p.csv"
        args = ["psd", "--family", "aloco", "--x", "1", "--m", "4",
                "--points", "16", "--out", str(out)]
        r = run(args, tmp_path)
        assert r.returncode == 0, r.stderr
        first = out.read_bytes()
        r = run(args, tmp_path)
        assert r.returncode == 0, r.stderr
        assert out.read_bytes() == first

    def test_iid_with_default_x(self, tmp_path):
        out = tmp_path / "iid.csv"
        r = run(["psd", "--family", "iid", "--points", "8", "--no-pulse",
                 "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 8
        assert all(abs(float(row.split(",")[1]) - 1.0) < 1e-11 for row in rows)

    def test_line_sidecar_for_finite(self, tmp_path):
        out = tmp_path / "p.csv"
        r = run(["psd", "--family", "aloco", "--x", "1", "--m", "4",
                 "--points", "16", "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        lines = json.loads((tmp_path / "p.lines.json").read_text())["lines"]
        assert any(abs(entry["f"]) < 1e-12 and entry["weight"] > 0
                   for entry in lines)


class TestManifests:
    def test_one_per_main_output(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(["psd", "--family", "aloco", "--x", "1", "--m", "4",
                     "--points", "8", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
        assert manifest["output"] == "p.csv"
        assert manifest["sidecar"] == "p.lines.json"
        assert not (tmp_path / "p.lines.json.manifest.json").exists()
        paper = tmp_path / "paper"
        assert main(["reproduce-paper", "--points", "8",
                     "--outdir", str(paper)]) == 0
        assert len(list(paper.iterdir())) == 33
        assert [p.name for p in paper.glob("*.manifest.json")] == [
            "summary.json.manifest.json"]


class TestOtherCommands:
    def test_ostm_rational_entries(self, tmp_path):
        out = tmp_path / "g.json"
        r = run(["ostm", "--family", "aloco", "--x", "1", "--m", "4",
                 "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        data = json.loads(out.read_text())
        assert len(data["entries"]) == 5
        assert "num" in data["entries"][0][0]

    def test_bandwidth_value(self, tmp_path):
        r = run(["bandwidth", "--family", "loco", "--x", "1", "--m", "4"],
                tmp_path)
        assert r.returncode == 0, r.stderr
        assert abs(float(r.stdout.strip().split()[-1]) - 0.6309) < 1e-3

    def test_autocorr_exact_fractions(self, tmp_path):
        out = tmp_path / "r.json"
        r = run(["autocorr", "--family", "aloco", "--x", "1", "--m", "4",
                 "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        data = json.loads(out.read_text())
        assert data["period"] == 5
        assert all("/" in v for v in data["periodic"])

    def test_autocorr_beyond_dense_memory(self, tmp_path):
        # N = 31,572 words: two N x N int64 bridge arrays would need 16 GB
        r = run(["autocorr", "--family", "aloco", "--x", "1", "--m", "18"],
                tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stdout.startswith("periodic: ")

    def test_clocked_ostd(self, tmp_path):
        out = tmp_path / "c.json"
        r = run(["clocked-ostd", "--family", "caloco", "--x", "1", "--m", "2",
                 "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        data = json.loads(out.read_text())
        assert data["edges"]


class TestExitCodes:
    def test_usage_error(self, tmp_path):
        r = run(["psd", "--family", "nosuch"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert "invalid choice" in r.stderr

    def test_computation_error(self, tmp_path):
        # finite family without --m is a domain error, not a crash
        r = run(["psd", "--family", "aloco", "--x", "1"], tmp_path)
        assert r.returncode == 1, r.stderr
        assert "ModuleNotFoundError" not in r.stderr
        assert r.stderr.startswith("error:")
        assert "m >= 1" in r.stderr

    def test_codebook_over_the_word_limit(self, tmp_path):
        # N = 2,839,729 words: the two commands that list words refuse
        # before listing any
        for args in (["mc"], ["codebook", "--out", str(tmp_path / "cb.json")]):
            r = run(args + ["--family", "aloco", "--x", "1", "--m", "26"],
                    tmp_path)
            assert r.returncode == 1, r.stderr
            assert r.stderr.startswith("error:")
            assert "2839729 words" in r.stderr
            assert "Traceback" not in r.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["fstd", "--family", "aloco"],
        ["ostm", "--family", "aloco", "--method", "grid"],
        ["ostm", "--family", "caloco", "--method", "grid"],
        ["clocked-ostd", "--family", "caloco"],
    ], ids=["fstd", "ostm_grid", "ostm_grid_clocked", "clocked_ostd"])
    def test_grid_commands_beyond_the_word_limit(self, tmp_path, args):
        # aloco x=1 m=26 has 2,839,729 words; the grid reads only counts
        out = tmp_path / "g.json"
        r = run(args + ["--x", "1", "--m", "26", "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        if args[0] == "fstd":
            assert len(json.loads(out.read_text())["states"]) == 79

    def test_codebook_payload_only_with_out(self, tmp_path):
        r = run(["codebook", "--family", "aloco", "--x", "1", "--m", "4"],
                tmp_path)
        assert r.returncode == 0, r.stderr
        assert list(tmp_path.iterdir()) == []
        out = tmp_path / "cb.json"
        r = run(["codebook", "--family", "aloco", "--x", "1", "--m", "4",
                 "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        words = brute_force_codebook(ConstraintFamily("aloco", 1, 4)).words
        assert json.loads(out.read_text())["words"] == [
            "".join(map(str, w)) for w in words]

    def test_codebook_count_beyond_the_word_limit(self, tmp_path):
        # without --out the count comes from the automaton, no listing
        args = ["codebook", "--family", "aloco", "--x", "1", "--m", "26"]
        r = run(args, tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "aloco m=26 x=1: 2839729 codewords\n"
        r = run(args + ["--out", str(tmp_path / "cb.json")], tmp_path)
        assert r.returncode == 1, r.stderr
        assert "2839729 words" in r.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["aloco", "loco", "caloco", "cloco"])
    def test_codebook_count_equals_listing(self, tmp_path, capsys, kind):
        out = tmp_path / "cb.json"
        for x in (1, 2):
            for m in range(2, 11):
                args = ["codebook", "--family", kind, "--x", str(x),
                        "--m", str(m)]
                assert main(args) == 0
                counted = capsys.readouterr().out
                assert main(args + ["--out", str(out)]) == 0
                assert capsys.readouterr().out == counted
                n = len(json.loads(out.read_text())["words"])
                assert counted.endswith(f": {n} codewords\n")

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_mc_seed_must_be_nonnegative(self, tmp_path, seed):
        r = run(["mc", "--family", "ax", "--x", "1", "--symbols", "1000",
                 "--seed", seed], tmp_path)
        assert r.returncode == 2, r.stderr
        assert "--seed" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("body", ["", "0.0\n0.5\n"],
                             ids=["header_only", "one_column"])
    def test_malformed_theory_file(self, tmp_path, body):
        theory = tmp_path / "theory.csv"
        theory.write_text("f,psd_continuous\n" + body)
        r = run(["mc", "--family", "iid", "--symbols", "1000",
                 "--against", str(theory)], tmp_path)
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr

    def test_zero_symbols_is_usage_error(self, tmp_path):
        r = run(["mc", "--family", "iid", "--x", "0", "--symbols", "0"],
                tmp_path)
        assert r.returncode == 2, r.stderr
        assert "--symbols" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("args,shortest", [
        (["--family", "ax", "--x", "1"], 65),
        (["--family", "iid"], 65),
        (["--family", "aloco", "--x", "1", "--m", "4"], 6),
        (["--family", "cloco", "--x", "2", "--m", "5"], 9),
    ], ids=["ax", "iid", "aloco", "cloco"])
    def test_symbols_up_to_the_lag_cutoff(self, tmp_path, args, shortest):
        # the estimator takes lags 0 .. shortest - 1 of the stream
        r = run(["mc"] + args + ["--symbols", str(shortest - 1)], tmp_path)
        assert r.returncode == 2, r.stderr
        assert "--symbols" in r.stderr
        assert f"at least {shortest}" in r.stderr
        assert "Traceback" not in r.stderr
        r = run(["mc"] + args + ["--symbols", str(shortest)], tmp_path)
        assert r.returncode == 0, r.stderr

    def test_symbols_checked_before_generation(self, monkeypatch, capsys):
        def unexpected(config):
            raise AssertionError("stream generated")

        monkeypatch.setattr(ccpsd.oracle, "generate_stream", unexpected)
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--family", "ax", "--x", "1", "--symbols", "10"])
        assert exc.value.code == 2
        assert "--symbols: must be at least 65" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["mc", "--family", "ax", "--x", "1", "--symbols", str(10**15)],
        ["psd", "--family", "ax", "--x", "1", "--points", str(10**15)],
    ], ids=["mc_symbols", "psd_points"])
    def test_count_beyond_memory(self, tmp_path, monkeypatch, capsys, args):
        # 10^15 exceeds any address space, so the allocation fails at once
        monkeypatch.chdir(tmp_path)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Unable to allocate" in err
        assert list(tmp_path.iterdir()) == []

    def test_negative_points_is_usage_error(self, tmp_path):
        r = run(["psd", "--family", "ax", "--x", "1", "--points", "-3"],
                tmp_path)
        assert r.returncode == 2, r.stderr
        assert "--points" in r.stderr
        assert "Traceback" not in r.stderr


# sha256 of every payload file (manifests excluded) that these commands
# write, as the Fraction-coefficient kernel wrote them: a change to the exact
# arithmetic must leave every byte as it is.  ``golden_payloads`` computes a
# case's mapping.
GOLDEN = json.loads((Path(__file__).parent / "golden_sha256.json").read_text())


def golden_commands(case):
    """Argument lists of one golden case, each writing into its own --out."""
    if case.startswith("closed_"):
        kind = case[len("closed_"):]
        return [["ostm", "--family", kind, "--x", str(x), "--m", str(m),
                 "--method", "closed", "--out", f"{kind}_x{x}_m{m}.json"]
                for x in (1, 2) for m in range(x + 2, 9)]
    if case == "grid":
        return [["ostm", "--family", kind, "--x", str(x), "--m", "6",
                 "--method", "grid", "--out", f"{kind}_x{x}_m6.json"]
                for kind in ("aloco", "loco", "caloco", "cloco")
                for x in (1, 2)]
    if case == "ax_sx":
        return [["ostm", "--family", kind, "--x", str(x),
                 "--out", f"{kind}_x{x}.json"]
                for kind in ("ax", "sx") for x in (1, 2, 3)]
    if case == "psd_ax4":
        return [["psd", "--family", "ax", "--x", "4", "--points", "64",
                 "--out", "psd_ax_x4.csv"]]
    if case == "autocorr":
        return [["autocorr", "--family", kind, "--x", str(x), "--m", str(m),
                 "--signal", signal,
                 "--out", f"{kind}_x{x}_m{m}_{signal}.json"]
                for kind in ("aloco", "loco", "caloco", "cloco")
                for x in (1, 2) for m in (6, 10)
                for signal in (("y", "x") if kind in ("aloco", "caloco")
                               else ("y",))]
    return [["reproduce-paper", "--points", "64", "--outdir", "paper"]]


def golden_payloads(case, workdir):
    """{relative path: sha256} of the payload files of ``case``."""
    for args in golden_commands(case):
        args = [str(workdir / a) if prev in ("--out", "--outdir") else a
                for prev, a in zip([None] + args, args)]
        assert main(args) == 0, args
    return {p.relative_to(workdir).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.rglob("*"))
            if p.is_file() and not p.name.endswith(".manifest.json")}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_payloads_match_golden_digests(tmp_path, capsys, case):
    assert golden_payloads(case, tmp_path) == GOLDEN[case]
