"""Every function in src/sfm_losskit runs under some CLI command.

Code that neither the CLI nor the optimizer reaches is deleted rather than
kept for tests alone, so a fresh process profiles one run of each command
variant and every function or method defined in the package must show up.
The profile starts before the package is imported, so functions that only
run at import time count, and no cache filled by an earlier test can hide
a call.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "sfm_losskit"
CONFIG = REPO / "configs" / "example_plane.cfg"

# Defined but reached by no command, each for a stated reason.
ALLOWED = {
    # ROADMAP direction 2's ablation script reads its argmin over the
    # closed-form occlusion masks (Scene.occluded)
    "losses.min_photometric",
    # only a diverging optimization builds it
    "errors.DivergedError.__init__",
    # only a malformed command line calls it (tests/test_cli.py TestArguments)
    "cli._Parser.error",
}

PROFILE_RUN = """
import json, sys

reached = set()


def profile(frame, event, arg):
    if event == "call":
        reached.add((frame.f_code.co_filename, frame.f_code.co_qualname))


sys.setprofile(profile)
try:
    from sfm_losskit import cli

    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
finally:
    sys.setprofile(None)
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""


def defined_functions() -> set[str]:
    """``module.qualname`` of every function and method in the package."""
    names = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return names


def commands(tmp: Path) -> list[list[str]]:
    """synth at 1 and 3 channels (random labels; lidar beams over a
    two-plane scene), decimate the lidar labels in place, optimize with each
    supervised loss and on the decimated labels at 3 scales, gradcheck, and
    eval against 1- and 3-channel ground truth."""
    gray, rgb = tmp / "gray", tmp / "rgb"

    def optimize(scene, *flags):
        return ["optimize", str(scene), "--config", str(CONFIG), "--out", str(tmp / "report"),
                "--optimizer.phase_a_iters=2", "--optimizer.phase_b_iters=2", *flags]

    return [
        ["synth", "--config", str(CONFIG), "--out", str(gray)],
        ["synth", "--config", str(CONFIG), "--out", str(rgb), "--scene.channels=3",
         "--scene.geometry=two_plane", "--scene.label_frac=0", "--scene.beams=8",
         "--scene.px_per_beam=6"],
        ["decimate", str(rgb / "labels.pfm"), "--keep", "4", "--out", str(rgb / "labels.pfm")],
        optimize(gray, "--optimizer.supervised_loss=l1"),
        optimize(gray, "--optimizer.supervised_loss=berhu"),
        optimize(rgb, "--optimizer.supervised_loss=rep", "--optimizer.num_scales=3"),
        # with the photometric term some pose probes fail here (exit 2)
        ["gradcheck", "--config", str(CONFIG), "--n-samples", "2", "--terms", "smooth,rep"],
        ["eval", str(gray / "depth.pfm"), str(gray / "depth.pfm")],
        ["eval", str(rgb / "depth.pfm"), str(rgb / "labels.pfm"), "--out", str(tmp / "m.csv")],
    ]


def test_every_function_runs_under_a_command(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "SFM_LOSSKIT_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    argvs = commands(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", PROFILE_RUN, json.dumps(argvs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(argvs), proc.stderr
    reached = {
        f"{Path(filename).stem}.{qualname}"
        for filename, qualname in result["reached"]
        if Path(filename).resolve().parent == PACKAGE
    }
    unreached = defined_functions() - reached
    assert sorted(unreached - ALLOWED) == []
    # an entry that a command now reaches leaves the list
    assert sorted(ALLOWED - unreached) == []
