"""Every benchmark catalogue item against its frozen digest.

The benchmark's catalogue (`perfbench/workloads.py`) holds every item its
workloads draw from, and `perfbench/expected.json` the digest of each
item's output bytes, or the field a malformed item's `SpecError` must
name. The benchmark modules are imported read-only from `perfbench/`, as
`tests/test_stages.py` does.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "perfbench"))
from measure import Program, check, execute, load_expected  # noqa: E402
from workloads import catalogue  # noqa: E402


def test_every_catalogue_item_matches_its_frozen_digest():
    # twice in one process, the second pass in reverse order: text the
    # package keeps per process must not let item order move a byte
    program, expected = Program(), load_expected()
    items = catalogue()
    assert items
    wrong = []
    for order, run in (("forward", items), ("reverse", items[::-1])):
        for item in run:
            why = check(item, execute(item, program), program, expected)
            if why:
                wrong.append(f"{order} {item.key}: {why}")
    assert not wrong, f"{len(wrong)} mismatches:\n" + "\n".join(wrong[:20])
