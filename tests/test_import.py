"""`import vadiff` loads the library alone.

The benchmark's set-up time is almost all this import, so a module the
library does not need, such as the CLI and its argparse, or a third-party
package beyond numpy, would show up there first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import vadiff


def loaded_by(statement):
    """The names in sys.modules after `statement` runs in a fresh interpreter
    that imports vadiff from where this process does."""
    src = str(Path(vadiff.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return set(json.loads(out.stdout))


def test_import_loads_only_the_library_numpy_and_the_standard_library():
    loaded = loaded_by("import vadiff")
    assert "vadiff.cli" not in loaded and "argparse" not in loaded
    allowed = loaded_by("import numpy.random")
    outside = sorted(name for name in loaded - allowed
                     if name.split(".")[0] not in sys.stdlib_module_names | {"vadiff"})
    assert not outside, outside
