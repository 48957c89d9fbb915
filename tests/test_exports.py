import subprocess
import sys
from pathlib import Path

import codebounds

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_resolves_once():
    names = codebounds.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(codebounds, name), name


def test_every_export_is_used_outside_the_tests():
    # tools/export_callers.py lists the exported names only tests refer to
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "export_callers.py")],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "0 exported names used only by tests\n"
