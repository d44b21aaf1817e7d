"""The counts that README.md quotes stay those of the tests that hold them."""

import re
from pathlib import Path

from test_golden import RUNS, USAGE
from test_settable_values import CEILING

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quotes_the_golden_run_count_and_the_settable_value_ceiling():
    text = " ".join(README.read_text().split())
    runs = re.search(r"`tests/test_golden.py` runs (\d+) fixed command lines", text)
    ceiling = re.search(r"counted over the source tree\) at (\d+);", text)
    assert runs and int(runs.group(1)) == len(RUNS) + len(USAGE)
    assert ceiling and int(ceiling.group(1)) == CEILING
