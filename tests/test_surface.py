"""The public surface of `vpart` is pinned, so a name is added or removed on purpose."""

import ast
from pathlib import Path

import vpart

PUBLIC = [
    "ConeCertificate",
    "ConstantOne",
    "GeometricWeights",
    "LatticePathCount",
    "LatticeVector",
    "MultinomialMonomial",
    "NotPointedError",
    "RecurrencePreconditionError",
    "RuleWeight",
    "StepMatrix",
    "TableWeight",
    "TruncatedSeries",
    "VerificationReport",
    "Violation",
    "WeightFunction",
    "certificate_from_functional",
    "certify_pointed",
    "cone_contains",
    "enumerate_solutions",
    "evaluate_weight",
    "exact",
    "full_support_part",
    "generalized_vp",
    "generalized_vp_table",
    "geometric_inverse",
    "integer_span_contains",
    "iter_orthant",
    "multinomial",
    "partition_series",
    "substitute_monomial",
    "vector_partition",
    "verify_basic_recurrence",
    "verify_cb_1d",
    "verify_cb_multidim",
    "verify_cb_vector_partition",
    "verify_partition_recurrence",
    "verify_path_series",
    "verify_summation_identity",
    "weight_series",
]


def test_all_is_pinned_sorted_and_public():
    assert vpart.__all__ == PUBLIC
    assert len(PUBLIC) == 39
    assert PUBLIC == sorted(PUBLIC)
    assert not [name for name in PUBLIC if name.startswith("_")]


def test_every_public_name_imports():
    namespace: dict = {}
    exec("from vpart import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC


def test_weights_are_read_only_in_core():
    # one weight read: `WeightFunction._value` is touched only by
    # `evaluate_weight`, the public boundary, and `_scaled_values`' fallback
    readers = []
    for path in sorted(Path(vpart.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_value":
                around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                name = max(around, key=lambda f: f.lineno).name if around else None
                readers.append((path.name, name, node.lineno))
    found = {(module, name) for module, name, _ in readers}
    assert found == {("core.py", "evaluate_weight"), ("core.py", "_scaled_values")}, readers
