import json
import os
import subprocess
import sys
from pathlib import Path

import ccpsd

# The directory that holds the imported package. The child runs in tmp_path,
# where a relative PYTHONPATH such as "src" would not resolve.
SRC_DIR = str(Path(ccpsd.__file__).resolve().parent.parent)


def run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ccpsd.cli"] + args,
                          cwd=cwd, env=env, capture_output=True, text=True)


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

    def test_zero_symbols_is_usage_error(self, tmp_path):
        r = run(["mc", "--family", "iid", "--x", "0", "--symbols", "0"],
                tmp_path)
        assert r.returncode == 2, r.stderr
        assert "--symbols" in r.stderr
        assert "Traceback" not in r.stderr

    def test_negative_points_is_usage_error(self, tmp_path):
        r = run(["psd", "--family", "ax", "--x", "1", "--points", "-3"],
                tmp_path)
        assert r.returncode == 2, r.stderr
        assert "--points" in r.stderr
        assert "Traceback" not in r.stderr
