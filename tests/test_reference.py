"""tests/reference.py calls no program kernel, so a change inside a kernel
cannot move both sides of the comparison that pins it."""

import ast
from pathlib import Path

import pytest

# what the module may take from eigendecay: data classes, error classes,
# and message or tolerance constants
ALLOWED = {
    "MarginReport", "MlpModel", "PointRecord",
    "AnchorSamplingError", "BisectionToleranceError", "DegenerateGradientError",
    "DegenerateIterateError", "NoCrossingError", "NonFiniteMidpointError",
    "BISECTION_MAX_STEPS", "BISECTION_TOL", "BOUND_EPS_REL", "DEGENERATE_START",
    "ITERATE_OVERFLOW", "LOSS_KINDS", "NONFINITE_MATRIX",
}


def _live_kernels(source):
    """Each eigendecay import outside ALLOWED, and each .slope( or .value(
    call, in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "eigendecay"]
        elif isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "eigendecay":
                found += [a.name for a in node.names if a.name not in ALLOWED]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("slope", "value")):
            found.append(f".{node.func.attr}(")
    return found


def test_reference_module_calls_no_program_kernel():
    assert _live_kernels(Path(__file__).with_name("reference.py").read_text()) == []


@pytest.mark.parametrize("line", [
    "from eigendecay.linalg import gram",
    "from eigendecay import model",
    "import eigendecay.objectives",
    "from eigendecay.margin import MarginReport, layer_lambda_dom",
    "y = layer.activation.value(v)",
    "d = Activation(kind).slope(y)",
])
def test_the_guard_finds_a_live_kernel(line):
    assert _live_kernels(line) != []
