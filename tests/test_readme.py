import re
from pathlib import Path

from ccpsd.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert abs(scope["bw"] - 0.5453) < 1e-4


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    blocks = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(),
                                    re.S) if b.startswith("ccpsd ")]
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    for line in blocks[0].splitlines():
        argv = line.split()
        assert argv[0] == "ccpsd"
        assert main(argv[1:]) == 0, line
        if "--out" in argv:
            out = tmp_path / argv[argv.index("--out") + 1]
            assert out.is_file(), line
            assert Path(f"{out}.manifest.json").is_file(), line
