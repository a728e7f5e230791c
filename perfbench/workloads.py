"""The benchmark's fixed workloads and the output digests they must reproduce.

Every case is deterministic.  The seed only permutes the order in which
`sweep18` visits its labels, which leaves the total work unchanged.  Why each
workload exists, and which cases are left out, is written down in NOTES.md.
"""

import random

# CLI workloads: arguments to `python -m borelab`, and the sha256 of the
# standard output it printed at the commit that defined the benchmark.
CLI = {
    "e8_minuscule": (
        ["export", "--type", "E8~1", "--pi1", "1", "--format", "json"],
        "2ba363092de042396d70166e1f58e0513a15fa651d2e7204f1b4ca0f7f63e6bf",
    ),
    "e7_adjoint": (
        ["export", "--type", "E7~1", "--pi1", "0", "--adjoint", "--format", "json"],
        "8343a60b749468d8a86551a6d6c49d77c7f518529600462b95cf4fbea12272a9",
    ),
    "c10_enumerate": (
        ["enumerate", "--type", "C10~1", "--pi1", "0,10", "--format", "json"],
        "c60361cb261402a099dd3d2e9abe6066d1acddc03e2fe685a6d0c19b9541413c",
    ),
}

# The 18 labels of the acceptance sweep in tests/test_acceptance.py.  Every
# grading of each, adjoint included and deduplicated, is 50 gradings.
SWEEP_LABELS = [
    "A1~1", "A2~1", "A3~1", "A4~1", "A5~1", "B2~1", "B3~1", "B4~1",
    "C3~1", "D4~1", "D5~1", "G2~1", "F4~1",
    "A2~2", "A4~2", "A5~2", "D4~2", "D5~2",
]
SWEEP_GRADINGS = 50
# sha256 over the 50 rendered documents, concatenated in SWEEP_LABELS order
# and catalog order within a label, whatever order the seed visits them in.
SWEEP_DIGEST = "b1ee308a6533ee6fc987701798d83dd6ad2c5f7a09cf767f27e0702ad3ff8704"

NAMES = [*CLI, "sweep18"]


def sweep_order(seed):
    """The label order sweep18 visits for this seed."""
    return random.Random(seed).sample(SWEEP_LABELS, len(SWEEP_LABELS))
