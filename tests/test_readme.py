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
    tol = 1e-9
    for text, n, seed in (("s", 3, 5), ("-s^0.34", 3, 5), ("-ln(s)+1e-7*s^2", 5, 42)):
        f = parse(text)
        num = 300 if text != "-ln(s)+1e-7*s^2" else 1000
        diag = sample_convexity(f, n, num, seed, tol)
        replays = []
        for i in range(num):
            namespace = {"f": f, "n": n, "seed": seed, "i": i, "tol": tol}
            exec(code, namespace)
            replays.append(namespace)
        # the flags count the failures, and the worst samples have the
        # largest deficits, bit for bit
        assert sum(not r["lhs_ok"].item() for r in replays) == diag.lhs_failures
        assert sum(not r["fprime_ok"].item() for r in replays) == diag.fprime_failures
        for i, name in ((diag.worst_lhs_sample, "lhs_deficit"),
                        (diag.worst_fprime_sample, "slope_deficit")):
            assert i > 0
            assert replays[i][name].item() == max(r[name].item() for r in replays)
        i = diag.max_midpoint_sample
        assert replays[i]["residual"].item() == diag.max_midpoint_residual
    # each case fails what it was chosen for
    assert diag.fprime_failures == 3
