import types
from pathlib import Path

import cetsim
import cetsim.cli  # noqa: F401  (binds every module the tracer targets)

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def test_public_names_unique_and_resolvable():
    names = cetsim.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(cetsim, name)]
    assert missing == []


def test_trace_targets_are_own_attributes():
    # the benchmark's trace mode patches each target in its owner's __dict__;
    # the tracer is executed from its source, so nothing is written beside it
    tracer = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(tracer))
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _, owner, attr, _ in tracer.targets(cetsim)
        if attr not in vars(owner)
    ]
    assert missing == []


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the README's Library block is run as written, so a name it shows
    # cannot outlive a rename or a deletion
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text[text.index("## Library") :].split("```python\n", 1)[1]
    monkeypatch.chdir(tmp_path)
    exec(compile(block[: block.index("```")], "README.md", "exec"), {})
    assert (tmp_path / "out" / "sweep.csv").exists()
