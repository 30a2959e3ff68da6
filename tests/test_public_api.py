"""The package's top-level API is exactly what the README's quick start uses,
plus the result and error types; every other name comes from its submodule."""

import re
from pathlib import Path

import iterbayes

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs():
    namespace = {}
    exec(compile(quick_start_code(), str(README), "exec"), namespace)
    assert namespace["est"].method == "bisection"
    assert abs(namespace["est"].value - 0.6180339887498949) < 1e-13


def test_top_level_names():
    assert set(iterbayes.__all__) == {
        "__version__",
        "BetaPrior",
        "BinomialObs",
        "Characteristic",
        "Estimate",
        "EstimationError",
        "characteristic_limit",
        "fixed_point_iterate",
        "iterate_binomial_characteristic",
        "solve_iterative_bayes",
        "triangle_posterior_mean",
    }
    assert all(hasattr(iterbayes, name) for name in iterbayes.__all__)
