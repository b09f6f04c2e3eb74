"""The README's ``## Library`` example and sweep replay recipe run as
written."""

import re
from pathlib import Path

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
    f, n, seed = parse("s"), 3, 5
    diag = sample_convexity(f, n, 1000, seed)
    # both worst samples start past the stream's first row
    for i, name, extreme in (
        (diag.min_hess_sample, "value", diag.min_hess_form),
        (diag.max_midpoint_sample, "residual", diag.max_midpoint_residual),
    ):
        assert i > 0
        namespace = {"f": f, "n": n, "seed": seed, "i": i}
        exec(code, namespace)
        assert namespace[name].item() == extreme
