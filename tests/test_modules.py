"""How the package's modules depend on each other, and the names the
benchmark's tracer patches."""
import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

from vmweval import cli

SRC = Path(cli.__file__).parent
PERFBENCH = Path(__file__).parents[1] / "perfbench"
FIXTURES = Path(__file__).parent / "fixtures"


def _imports(module: str) -> tuple[set[str], set[str]]:
    """(the vmweval modules, the other top-level modules) that the source
    of vmweval.`module` imports, wherever the import statement stands."""
    package, other = set(), set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text("utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            # from . import x, y / from .x import y
            package.update([node.module.split(".")[0]] if node.module
                           else [alias.name for alias in node.names])
            continue
        elif isinstance(node, ast.ImportFrom):
            names = [node.module if node.module != "vmweval"
                     else f"vmweval.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            top, _, rest = name.partition(".")
            if top == "vmweval":
                package.add(rest.partition(".")[0] or "vmweval")
            else:
                other.add(top)
    return package, other


def test_the_run_directory_and_the_config_do_not_import_the_stages():
    package, other = _imports("rundir")
    assert package <= {"records", "errors"}, package
    assert other <= set(sys.stdlib_module_names), other - set(sys.stdlib_module_names)
    assert "cli" not in _imports("config")[0]
    # the parse sees what cli imports, so an empty set above is not vacuous
    assert {"config", "rundir", "errors", "llm"} <= _imports("cli")[0]


def test_perfbench_traced_names_still_measure_the_same_calls(tmp_path, monkeypatch):
    """perfbench/tracing.py patches attributes of vmweval.cli, so each call
    it counted before cli.py was split must still look its name up there."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["run-all", "--config", str(FIXTURES / "runall_config.yaml"),
                         "--seed", "42", "--stage-out", str(tmp_path / "run")])
    finally:
        tracer.uninstall()
    assert code == 0
    spans = Counter(span[1] for span in tracer.spans)
    # read: the DA and gold files; written: the candidates, the controls and
    # the four later stages' records, and their manifests with the report's
    assert (spans["cli.read_jsonl"], spans["cli.write_jsonl"],
            spans["cli.write_manifest"]) == (2, 6, 7)
    assert [spans[f"cli.stage_{stage}"] for stage in tracing.STAGES] == [1] * 6
    # the backend and screening calls the translate and score stages make
    assert (spans["mt.translate"], spans["mt.validate_translation"],
            spans["qe.score"]) == (136, 102, 98)
    # targets that no longer exist; ROADMAP item 1 drops their metrics,
    # which empties this list
    assert tracer.absent == ["lexicon.ordered", "extract.sample_non_vmwe"]
