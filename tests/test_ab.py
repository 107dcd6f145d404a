"""The whole-process A/B harness, `tools/ab.py`, run on one tree against itself."""

import hashlib
import importlib.util
import os
import py_compile
import shutil
from pathlib import Path

from equimatch import __version__

REPO = Path(__file__).resolve().parents[1]


def _ab():
    spec = importlib.util.spec_from_file_location("ab", REPO / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_pairs_of_version_on_one_tree_agree():
    result = _ab().compare(REPO, REPO, ["--version"], pairs=2)
    (row,) = result["runs"]
    assert row["pairs"] == 2 and row["exit_codes"] == {"base": [0], "head": [0]}
    assert row["same_output"]
    assert row["digest"] == hashlib.sha256(f"{__version__}\n".encode()).hexdigest()
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        assert 1 / 3 < row[name]["median_ratio"] < 3, name  # one tree: near 1 on a quiet host
        for side in ("base", "head"):
            stats = row[name][side]
            assert 0 < stats["q1"] <= stats["median"] <= stats["q3"], (name, side)
        paired = row[name]["paired"]
        assert len(paired) == 2 and all(len(pair) == 2 for pair in paired)
        assert row[name]["head_lower_in"] == sum(h < b for b, h in paired)
    assert result["harness_peak_rss_mb"] > 0


def test_outputs_that_differ_are_named():
    ab = _ab()
    run = {"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0, "code": 0}
    row = ab.summarize("--version", {"base": [{**run, "digest": "a"}], "head": [{**run, "digest": "b"}]})
    assert not row["same_output"] and row["digest"] == {"base": ["a"], "head": ["b"]}
    assert row["wall_s"]["median_ratio"] == 1.0 and row["wall_s"]["head_lower_in"] == 0


def test_each_pair_is_written_in_run_order():
    ab = _ab()
    runs = {
        side: [{"wall_s": w, "cpu_s": w, "peak_rss_mb": w, "code": 0, "digest": "a"} for w in walls]
        for side, walls in (("base", [2.0, 3.0, 1.0]), ("head", [1.0, 3.5, 0.5]))
    }
    row = ab.summarize("verify", runs)
    assert row["wall_s"]["paired"] == [[2.0, 1.0], [3.0, 3.5], [1.0, 0.5]]
    assert row["wall_s"]["head_lower_in"] == 2 and row["wall_s"]["base"]["median"] == 2.0


def test_both_trees_are_byte_compiled_before_the_first_pair(tmp_path):
    # a copied tree whose every source is newer than its bytecode: without the
    # compile step, a module `--version` never imports would stay stale
    tree = tmp_path / "tree"
    shutil.copytree(REPO / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    sources = sorted((tree / "src").rglob("*.py"))
    for path in sources:
        py_compile.compile(str(path), doraise=True)
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**10))
    _ab().compare(tree, tree, ["--version"], pairs=1)
    for path in sources:
        header = Path(importlib.util.cache_from_source(str(path))).read_bytes()[:16]
        mtime = int(path.stat().st_mtime) & 0xFFFFFFFF
        assert header[:4] == importlib.util.MAGIC_NUMBER, path
        assert int.from_bytes(header[8:12], "little") == mtime, path
