"""Source mutants as data, and a runner that checks each one is killed.

Each mutant is one textual change to one source file, and names the
tests that must fail on it. The runner copies the checkout to a
temporary directory, applies one mutant there, runs the mutant's tests
with ``pytest -x`` under a per-mutant timeout, and reports the mutant as
killed (a test failed), survived (every test passed), timed out, or
error (pytest could not run the selection). The checkout itself is
never written.

Run from the repository root:

    python tests/mutation.py

It exits 0 only when every mutant was killed. Tier-1 does not run
the mutants; ``tests/test_mutation.py`` only checks that each old text
still occurs exactly once in its file, so a refactor that moves the code
updates this table instead of letting it rot.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120  # per mutant


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str   # relative to the repository root
    old: str    # occurs exactly once in path
    new: str
    tests: tuple[str, ...]  # pytest node ids that must kill it


ROLL = "src/selfright/rollmodel.py"
CONFIG = "src/selfright/config.py"
ORACLE = "tests/test_rollmodel.py::test_integrate_matches_relocating_oracle"

MUTANTS = (
    Mutant("rest span one interval longer", ROLL,
           "np.ceil((leave - x) / step) - 1.0, 0.0)",
           "np.ceil((leave - x) / step), 0.0)",
           (f"{ORACLE}[legged-lumped-5.0]",)),
    Mutant("flat solve caps at phi, not max(g, phi)", ROLL,
           "p + q * uu),\n                     np.maximum(g, phi))",
           "p + q * uu),\n                     phi)",
           (f"{ORACLE}[limbless-segmented-5.0]",)),
    Mutant("capped lanes run on to their edge", ROLL,
           "end = np.where(capped, np.maximum(g, phi), edge)",
           "end = edge",
           ("tests/test_rollmodel.py::test_per_module_start_is_rejected",)),
    Mutant("Adler turn x 2.2", ROLL,
           "turned = 2.0 * np.arctan2(sf * r, cf + sf * slope)",
           "turned = 2.2 * np.arctan2(sf * r, cf + sf * slope)",
           (f"{ORACLE}[legged-lumped-5.0]",)),
    Mutant("settled lanes go on although their rate turns", ROLL,
           "keeps = r_next * r > 0",
           "keeps = r_next * r > -np.inf",
           ("tests/test_acceptance.py::test_criterion_4_one_shot_roll",)),
    Mutant("support_pieces without its short-leg fallback", ROLL,
           "            lines = lines[:1]\n",
           "            pass\n",
           ("tests/test_rollmodel.py::"
            "test_legs_too_short_to_show_leave_the_limbless_table[0.0]",)),
    Mutant("kink-pass lanes go on although their rate turns", ROLL,
           "keep = r_next * r[go] > 0",
           "keep = r_next * r[go] > -np.inf",
           ("tests/test_acceptance.py::test_criterion_4_one_shot_roll",)),
    Mutant("_fit_planar without its conj", "src/selfright/sidewinding.py",
           "np.conj(moved - mb[:, None])",
           "(moved - mb[:, None])",
           ("tests/test_sidewinding.py::"
            "test_fit_planar_recovers_rigid_motion",)),
    # Merged onto a non-default config, since class and run defaults agree.
    Mutant("config sections filled from class defaults", CONFIG,
           "replace(config, **{",
           "type(config)(**{",
           ("tests/test_config_cli.py::"
            "test_merge_config_merges_onto_the_running_config",)),
    Mutant("GaitParams defaults to 1 rad/s", "src/selfright/gait.py",
           "temporal_frequency: float = QUASI_STATIC_OMEGA",
           "temporal_frequency: float = 1.0",
           ("tests/test_config_cli.py::"
            "test_gait_params_default_is_the_runs_gait",)),
    Mutant("sweep grid's amplitudes unchecked", CONFIG,
           "if not 0.0 <= a <= MAX_AMPLITUDE:",
           "if False:",
           ("tests/test_config_cli.py::"
            "test_range_checks_reject_nan_and_negative_widths",)),
    Mutant("parser built on every call", "src/selfright/cli.py",
           "@functools.cache  # parse_args leaves the parser as it found it\n",
           "",
           ("tests/test_config_cli.py::test_parser_is_built_once",)),
    Mutant("reference flow freezes b over each interval", "tests/conftest.py",
           "+ spring * (x @ lap)",
           "+ spring * (start @ lap)",
           ("tests/test_reference_flow.py::"
            "test_reference_reads_the_closed_form_without_coupling",)),
)


def _ignore(directory: str, names: list[str]) -> set[str]:
    return {n for n in names if n in {".git", "__pycache__", ".pytest_cache",
                                      ".hypothesis", ".bench_work"}}


def run_mutant(mutant: Mutant) -> tuple[str, str]:
    """(outcome, pytest's last output line) for one mutant. A mutant
    whose new text equals its old one runs the checkout unchanged."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=_ignore)
        target = work / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "error", f"old text occurs {text.count(mutant.old)} times"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", *mutant.tests],
                cwd=work, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timed out", f"after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    last = lines[-1] if lines else done.stderr.strip()
    # pytest exits 1 when a test failed, 0 when all passed; anything else
    # (usage error, nothing collected) means the selection did not run.
    outcome = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    return outcome, last


def main() -> int:
    # The selections must pass on the unchanged source, or a failure
    # would say nothing about a mutant.
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    outcome, detail = run_mutant(Mutant("unmutated", MUTANTS[0].path,
                                        MUTANTS[0].old, MUTANTS[0].old,
                                        tests))
    print(f"{outcome:9}  unmutated  ({detail})", flush=True)
    if outcome != "survived":
        return 1
    killed = 0
    for mutant in MUTANTS:
        outcome, detail = run_mutant(mutant)
        killed += outcome == "killed"
        print(f"{outcome:9}  {mutant.name}  ({detail})", flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
