"""The CLI's byte contract as committed digests.

Every call of ``tools/compare_outputs.py`` runs in this one process
through ``helirep.cli.main``, each in a fresh directory holding the
compare tool's chain configs.  The SHA-256 of its stdout, its exit code
and the SHA-256 of any file it writes there (``gy-build`` without
``--out`` writes its six matrices into the working directory) must equal
the digests in ``byte_contract.json``.  Running all calls in one process
also checks that nothing one call leaves behind (the parser, the memos)
changes the bytes of a later one.  The ``demos`` section holds the
SHA-256 of each demo's stdout, run as its own process;
``tests/test_cli.py::test_demo_runs`` checks it.

The digests tie the bytes to the numpy version and platform they were
computed on.  A deliberate output change updates its call's digest in
the same diff; after such a change, regenerate the file with

    PYTHONPATH=src python tests/test_byte_contract.py --write
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

import helirep
from helirep.cli import main

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "byte_contract.json"
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))


def _compare_tool():
    path = HERE.parent / "tools" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _run(argv, configs, cwd):
    """{"exit", "stdout", "files"} of one in-process call run in ``cwd``."""
    cwd.mkdir()
    for name, cfg in configs.items():
        (cwd / name).write_text(json.dumps(cfg), encoding="utf-8")
    out, err = StringIO(), StringIO()
    before = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        os.chdir(before)
    files = {path.name: _sha(path.read_bytes())
             for path in sorted(cwd.iterdir()) if path.name not in configs}
    return {"exit": code, "stdout": _sha(out.getvalue().encode("utf-8")),
            "files": files}


def child_env():
    """Environment for a child process: it imports the same ``helirep`` as
    this process and runs at the suites' default tolerance."""
    env = dict(os.environ)
    env.pop("HELIREP_TOL", None)
    src_root = str(Path(helirep.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    return env


def run_demo(demo, cwd):
    """(exit code, stdout SHA-256, stderr) of one demo run in ``cwd``."""
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=child_env(), cwd=cwd)
    return proc.returncode, _sha(proc.stdout), proc.stderr.decode()


def run_all(root):
    """Every compare-tool call, in order, under ``root``: name -> digests."""
    tool = _compare_tool()
    configs = tool.configs()
    return {name: _run(argv, configs, root / f"call{i:02d}")
            for i, (name, argv) in enumerate(tool.calls())}


def test_every_call_matches_its_digest(tmp_path, monkeypatch):
    monkeypatch.delenv("HELIREP_TOL", raising=False)
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = run_all(tmp_path)
    assert list(got) == list(want["calls"]), (
        "the compare tool's call list changed; regenerate the digests")
    differ = [f"{name}: {field}" for name, digests in got.items()
              for field in ("exit", "stdout", "files")
              if digests[field] != want["calls"][name][field]]
    assert not differ, (
        f"{len(differ)} call(s) print other bytes than the committed digests: "
        f"{differ}.  The digests tie the bytes to numpy {want['numpy']} on "
        f"{want['platform']} (this run: numpy {np.__version__} on "
        f"{sys.platform}); on another numpy or platform a difference may be "
        "round-off, not a change.  A deliberate output change updates its "
        "digest in the same diff.")


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    os.environ.pop("HELIREP_TOL", None)
    with tempfile.TemporaryDirectory() as root:
        calls = run_all(Path(root))
        demos = {}
        for demo in DEMOS:
            code, digest, err = run_demo(demo, root)
            if code:
                sys.exit(f"{demo.name} exits {code}:\n{err}")
            demos[demo.name] = digest
    DIGESTS.write_text(json.dumps(
        {"numpy": np.__version__, "platform": sys.platform, "calls": calls,
         "demos": demos},
        indent=1) + "\n", encoding="utf-8")
