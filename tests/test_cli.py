"""Command-line interface: golden files, exit codes, and determinism."""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
REGEN = GOLDEN_DIR / "regenerate.sh"
SRC = str(REPO_ROOT / "src")


def run_cli(args, threads="1", cwd=REPO_ROOT, input_text=None):
    # run the checkout's package, installed or not
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        ZII_THREADS=threads,
        PYTHONPATH=SRC + os.pathsep + path if path else SRC,
    )
    return subprocess.run(
        [sys.executable, "-m", "zii", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        input=input_text,
        timeout=120,
    )


def golden_commands():
    """(argv, golden file, uses --out) for every command in regenerate.sh."""
    out = []
    for line in REGEN.read_text().splitlines():
        if not line.startswith("zii "):
            continue
        if "--out" in line:
            # zii ... --out "$G/file" > /dev/null
            m = re.match(r'zii (.*) --out "\$G/([^"]+)"', line)
            args = shlex.split(m.group(1))
            out.append((args, GOLDEN_DIR / m.group(2), True))
        else:
            m = re.match(r'zii (.*?)\s*> "\$G/([^"]+)"', line)
            args = shlex.split(m.group(1))
            out.append((args, GOLDEN_DIR / m.group(2), False))
    return out


GOLDENS = golden_commands()


class TestGoldenFiles:
    def test_every_golden_file_is_covered(self):
        produced = {path.name for _, path, _ in GOLDENS}
        on_disk = {
            p.name for p in GOLDEN_DIR.iterdir() if p.name != "regenerate.sh"
        }
        assert produced == on_disk

    @pytest.mark.parametrize(
        "args,path,uses_out",
        GOLDENS,
        ids=[p.name for _, p, _ in GOLDENS],
    )
    def test_output_matches_golden(self, args, path, uses_out, tmp_path):
        want = path.read_text()
        if uses_out:
            target = tmp_path / "out.json"
            res = run_cli([*args, "--out", str(target)])
            assert res.returncode == 0, res.stderr
            assert target.read_text() == want
        else:
            res = run_cli(args)
            assert res.returncode == 0, res.stderr
            assert res.stdout == want

    @pytest.mark.parametrize(
        "args,path,uses_out",
        GOLDENS,
        ids=[p.name for _, p, _ in GOLDENS],
    )
    def test_byte_identical_across_thread_counts(self, args, path, uses_out, tmp_path):
        outs = []
        for threads in ("1", "4"):
            if uses_out:
                target = tmp_path / f"out-{threads}.json"
                res = run_cli([*args, "--out", str(target)], threads=threads)
                assert res.returncode == 0
                outs.append(target.read_bytes())
            else:
                res = run_cli(args, threads=threads)
                assert res.returncode == 0
                outs.append(res.stdout.encode())
        assert outs[0] == outs[1]


class TestExitCodes:
    def test_spec_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.zii"
        bad.write_text("family: bad\ndomain: unit-box\ndensity: q*x\n")
        res = run_cli(["equations", "--spec", str(bad), "--degree", "1"])
        assert res.returncode == 2
        assert "undeclared symbol 'q'" in res.stderr
        assert "line 3" in res.stderr

    def test_singular_matrix_is_three(self, tmp_path):
        zero = tmp_path / "zero.zii"
        zero.write_text("family: z\ndomain: unit-box\ndensity: 0\n")
        res = run_cli(["inverse", "--spec", str(zero), "--degree", "1"])
        assert res.returncode == 3

    def test_degree_cap_is_four(self):
        res = run_cli(["mask", "--degree", "15"])
        assert res.returncode == 4

    def test_constraint_violation_is_five(self):
        res = run_cli(
            ["check", "--family", "sum-power-exp", "--at", "ell=-1", "--degree", "1"]
        )
        assert res.returncode == 5

    def test_unknown_family_fails(self):
        res = run_cli(["equations", "--family", "nope", "--degree", "1"])
        assert res.returncode != 0


class TestOutputHygiene:
    def test_timing_only_on_stderr(self):
        res = run_cli(["mask", "--degree", "2"])
        assert "elapsed" not in res.stdout
        assert "elapsed" in res.stderr

    def test_digest_line_present(self):
        res = run_cli(["equations", "--family", "sum-power-exp", "--degree", "1"])
        digest_lines = [
            l for l in res.stdout.splitlines() if l.startswith("digest: ")
        ]
        assert len(digest_lines) == 1
        assert re.fullmatch(r"digest: [0-9a-f]{16}", digest_lines[0])

    def test_json_out_is_valid_and_carries_digest(self, tmp_path):
        target = tmp_path / "o.json"
        res = run_cli(
            [
                "collapse",
                "--family",
                "sum-power-exp",
                "--max-degree",
                "2",
                "--out",
                str(target),
            ]
        )
        assert res.returncode == 0
        doc = json.loads(target.read_text())
        assert doc["command"] == "collapse"
        assert doc["results"]["order"] == 1
        stdout_digest = re.search(r"digest: ([0-9a-f]{16})", res.stdout).group(1)
        assert doc["digest"] == stdout_digest

    def test_svg_mask_draws_a_circle_per_kept_entry(self):
        res = run_cli(["mask", "--degree", "2", "--format", "svg"])
        assert res.stdout.startswith("<svg ")
        # 36 entries, 10 masked (5 symmetric pairs): 26 filled circles
        filled = res.stdout.count("<circle")
        assert filled == 36
        masked = res.stdout.count('fill="none"')
        assert masked == 10

    def test_ascii_mask_marks_masked_cells(self):
        res = run_cli(["mask", "--degree", "2"])
        dots = res.stdout.count(".")
        assert dots == 10  # 5 mask pairs, symmetric


class TestSpecAndFamilyAgree:
    def test_spec_file_equals_builtin(self):
        via_family = run_cli(["equations", "--family", "bilinear-box", "--degree", "1"])
        via_spec = run_cli(
            ["equations", "--spec", "specs/bilinear-box.zii", "--degree", "1"]
        )

        def body(out):
            # the digest fingerprints the invocation arguments too, so it is
            # the one line allowed to differ between the two spellings
            return [l for l in out.splitlines() if not l.startswith("digest: ")]

        assert body(via_family.stdout) == body(via_spec.stdout)
