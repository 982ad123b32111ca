"""The package root and the benchmark's entry points against the code."""

import importlib
import importlib.util
import re
from pathlib import Path

import oscmean

ROOT = Path(__file__).resolve().parents[1]


def test_root_exports_the_documented_names():
    readme = (ROOT / "README.md").read_text()
    line = next(l for l in readme.splitlines() if l.startswith("The package root exports"))
    documented = re.findall(r"`(\w+)`", line)
    assert sorted(oscmean.__all__) == sorted(documented)
    for name in documented:
        assert getattr(oscmean, name) is not None


def test_benchmark_entry_points_resolve():
    # spans.py imports only the standard library, so it loads without the harness
    spec = importlib.util.spec_from_file_location("oscbench_spans", ROOT / "oscbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name, bindings in spans.ENTRY_POINTS.items():
        for module_name, attribute in bindings:
            module = importlib.import_module(f"oscmean.{module_name}")
            assert callable(getattr(module, attribute, None)), (name, module_name, attribute)


def test_readme_quick_tour_runs_as_written(capsys):
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "2*t^0*L^0"
    reference = oscmean.neuman_LN((1.0, 2.718281828, 7.389056099))
    assert abs(namespace["result"].point[0] - reference) <= 1e-12 * reference
    assert abs(float(printed[1]) - float(printed[2])) <= 1e-12 * float(printed[2])
