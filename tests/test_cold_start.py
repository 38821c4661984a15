"""Start-up cost: importing mudilate and running the whole gallery load
numpy alone.  scipy is loaded on first use, by the QZ fallback of
``numerical_radius`` (ungraded input) and by the certificate search, and
the closed-form spectral radii (``mudilate.charpoly``) by ``mu_E``."""

import json
import os
import subprocess
import sys

import numpy as np

import mudilate
from mudilate import opcore

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mudilate.__file__)))


def fresh(code: str, *args: str) -> dict:
    """Run ``code`` in a new interpreter that imports this mudilate; its
    stdout is one JSON object."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


PREAMBLE = """
import json, sys
import numpy as np

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""

GALLERY = PREAMBLE + """
import mudilate
after_import = scipy_loaded()
from mudilate.gallery import CASE_IDS, GalleryCase, run_example
verdicts = [run_example(GalleryCase(cid, {"trunc": 8})).verdict for cid in CASE_IDS]
print(json.dumps({"import": after_import, "gallery": scipy_loaded(),
                  "charpoly": "mudilate.charpoly" in sys.modules, "verdicts": verdicts}))
"""

RADIUS = PREAMBLE + """
from mudilate import opcore
re, im = json.loads(sys.argv[1])
a = np.array(re) + 1j * np.array(im)
before = scipy_loaded()
radius = opcore.numerical_radius(a)
print(json.dumps({"before": before, "after": scipy_loaded(), "radius": radius}))
"""


def test_import_and_gallery_load_no_scipy():
    out = fresh(GALLERY)
    assert out["import"] == []
    assert out["gallery"] == []
    assert not out["charpoly"]
    assert set(out["verdicts"]) == {"pass"}


def test_ungraded_numerical_radius_loads_scipy_on_first_use():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert not opcore.grading(a).unit  # so numerical_radius takes the QZ fallback
    out = fresh(RADIUS, json.dumps([a.real.tolist(), a.imag.tolist()]))
    assert out["before"] == []
    assert "scipy.linalg" in out["after"]
    assert out["radius"] == opcore._level_set_radius(a)
