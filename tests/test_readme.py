"""The README's ``## Library`` example and sweep replay recipe run as
written."""

import math
import re
from pathlib import Path

import numpy as np

from detconvex.certifier import sample_convexity
from detconvex.scalarfun import parse

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["report"].verdict == "CertifiedOnGrid"
    assert namespace["value"] > 0


def test_sweep_replay_recipe_reproduces_reported_failures():
    # fences alternate between opening and closing
    blocks = re.split(r"^```\w*$", README.read_text(), flags=re.MULTILINE)[1::2]
    recipe = [b for b in blocks if "certifier.sweep_draw" in b]
    assert len(recipe) == 1
    code = compile(recipe[0], "README.md", "exec")
    for text, n, seed, num in (("s", 3, 5, 300), ("8e307*s^2", 3, 5, 300), ("-ln(s)", 5, 42, 1000)):
        f = parse(text)
        diag = sample_convexity(f, n, num, seed)
        residuals, skipped = [], 0
        for i in range(num):
            namespace = {"f": f, "n": n, "seed": seed, "i": i}
            exec(code, namespace)
            residuals.append(namespace["residual"].item())
            skipped += bool(np.isnan(namespace["g"]).any())
        # the residuals count the failures and the skips, and the largest
        # sample's residual is the sweep's, bit for bit
        assert sum(r > 1e-8 for r in residuals) == diag.midpoint_failures
        assert skipped == diag.samples_skipped
        i = diag.max_midpoint_sample
        assert i > 0 and residuals[i] == diag.max_midpoint_residual
        assert residuals[i] == max(r for r in residuals if math.isfinite(r))
        # each case shows what it was chosen for
        assert (diag.midpoint_failures > 0) == (text != "-ln(s)")
        assert (skipped > 0) == (text == "8e307*s^2")
