"""Mutation probe of the verdict rules and the model layer: which test catches each edit.

    PYTHONPATH=src python tests/mutants.py WORKDIR [M2 M7 ...]

``MUTANTS`` holds one-line edits of those rules, each as data: the file,
the exact old text (it must occur once), the new text, and the rule that
the edit breaks.  For each named mutant (all of them when none is
named) the script copies the working tree (the files git tracks, plus the
untracked ones it does not ignore) to ``WORKDIR/<mutant>``, applies the
edit there and runs Tier-1 in that copy with ``-x``.  It prints one line
per mutant: "killed by <test>", "survived", or "does not apply" when the
old text is not found once.  The working tree is never edited.  A mutant
that survives costs one full Tier-1 run.  pytest does not collect this
file.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
RANK, CLI, JACOBI = "src/sphererank/rank.py", "src/sphererank/cli.py", "src/sphererank/jacobi.py"
GEOMETRY = "src/sphererank/geometry.py"


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    rule: str


MUTANTS = {
    "M1": Mutant(
        RANK,
        "at_pi = any(abs(e.time - math.pi) <= time_tol for e in events)",
        "at_pi = any(abs(e.time - math.pi) <= 10 * time_tol for e in events)",
        "an event at pi is one within time_tol of it",
    ),
    "M2": Mutant(
        RANK,
        "if len(events) == len(halved[i]) else math.inf",
        "if len(events) == len(halved[i]) else 0.0",
        "an event-count mismatch between the Richardson runs is an infinite gap",
    ),
    "M3": Mutant(
        JACOBI,
        "sigma < rank_tol * np.maximum(norm, 1e-300)",
        "sigma < 1000 * rank_tol * np.maximum(norm, 1e-300)",
        "detect_events confirms an event at rank_tol",
    ),
    "M4": Mutant(
        RANK,
        "passes=bool(dev[i] <= tol),",
        "passes=bool(dev[i] <= 10 * tol),",
        "a weak row passes at tol",
    ),
    "M6": Mutant(
        RANK,
        "not any(e.time < math.pi - time_tol for e in events)",
        "not any(e.time < math.pi - 100 * time_tol for e in events)",
        "an event more than time_tol before pi fails its geodesic",
    ),
    "M7": Mutant(
        RANK,
        "if hi > 1.0 + curv_tol:",
        "if hi > 1.0 + 100 * curv_tol:",
        "the curvature-bound precondition is 1 + curv_tol",
    ),
    "M8": Mutant(
        RANK,
        "if sampled_sec_max > 1.0 + curv_tol:",
        "if sampled_sec_max > 1.0 + 100 * curv_tol:",
        "the sampled-curvature precondition is 1 + curv_tol",
    ),
    "M9": Mutant(
        RANK,
        "RICHARDSON_AGREEMENT = 1e-7",
        "RICHARDSON_AGREEMENT = 1e-5",
        "the Richardson runs agree within 1e-7",
    ),
    "M10": Mutant(
        RANK,
        "cert = bool(cert_resid[i] <= DEFAULT_CERT_TOL)",
        "cert = bool(cert_resid[i] <= 100 * DEFAULT_CERT_TOL)",
        "a certificate is found at DEFAULT_CERT_TOL",
    ),
    "M11": Mutant(
        RANK,
        "worst = next(e.index for e in evidence if not e.passes)",
        "worst = [e.index for e in evidence if not e.passes][-1]",
        "worst_case is the first failing geodesic",
    ),
    "M13": Mutant(
        CLI,
        'code = 2\n        summary = "precondition-failed"',
        'code = 1\n        summary = "precondition-failed"',
        "a precondition failure exits 2",
    ),
    "M14": Mutant(
        CLI,
        "code = 0 if verdict.holds else 1",
        "code = 0",
        "a failing verdict exits 1",
    ),
    "M15": Mutant(
        GEOMETRY,
        '"special_directions", "killing_direction",\n',
        '"special_directions", "killing_direction", "curvature_bounds",\n',
        "a scaled model's curvature bounds scale by 1/lam^2",
    ),
    "M16": Mutant(
        GEOMETRY,
        '"transport_project", "canonical_point",',
        '"transport_project",',
        "a scaled model keeps its base's canonical_point",
    ),
    "M17": Mutant(
        RANK,
        "(fiber_time, positive, weak_up), weak_low = _beside(upper_stages, lower_stage)",
        "(fiber_time, positive, weak_low), weak_up = _beside(upper_stages, lower_stage)",
        "a report row's forked weak-lower verdict is its weak_lower",
    ),
    "M18": Mutant(
        RANK,
        "return left + right",
        "return right + left",
        "a split chunk's row halves join in row order",
    ),
    "M19": Mutant(
        RANK,
        "return left + right",
        "return left + [(r[0], -math.inf) if isinstance(r, tuple) else r for r in right]",
        "the sampled curvature of the positive check counts the child's row half",
    ),
}


def copy_tree(dest):
    """Copy the working tree's files that git tracks or does not ignore to ``dest``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def apply(mutant, tree):
    """Apply ``mutant`` in ``tree``; False when its old text is not found exactly once."""
    path = tree / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def tier1(tree):
    """The first failing test of Tier-1 with ``-x`` in ``tree``, or None if it passes."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if run.returncode == 0:
        return None
    for line in run.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return f"pytest exit {run.returncode}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workdir", type=Path, help="where the mutated copies are made")
    parser.add_argument("names", nargs="*", help=f"mutants to run (default: all of {list(MUTANTS)})")
    args = parser.parse_args(argv)
    workdir = args.workdir.resolve()
    if workdir == ROOT or ROOT in workdir.parents:
        parser.error("the work directory must lie outside the working tree")
    unknown = [n for n in args.names if n not in MUTANTS]
    if unknown:
        parser.error(f"unknown mutants: {unknown}")
    for name in args.names or MUTANTS:
        mutant, tree = MUTANTS[name], workdir / name
        if tree.exists():
            shutil.rmtree(tree)
        copy_tree(tree)
        if not apply(mutant, tree):
            outcome = "does not apply"
        else:
            failed = tier1(tree)
            outcome = "survived" if failed is None else f"killed by {failed}"
        print(f"{name} ({mutant.rule}): {outcome}", flush=True)


if __name__ == "__main__":
    main()
