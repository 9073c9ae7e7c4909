"""Every name in the package's and each module's ``__all__`` resolves once
and has a docstring, and the package exports exactly the pinned names."""
import ast
import importlib
import inspect
import pkgutil

import pytest

import diskclass

# __main__ runs the CLI on import
MODULES = [m.name for m in pkgutil.iter_modules(diskclass.__path__)
           if m.name != "__main__"]


@pytest.mark.parametrize("name", ["diskclass"] + [f"diskclass.{m}" for m in MODULES])
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [n for n in exported if not hasattr(module, n)] == [], name


@pytest.mark.parametrize("name", [f"diskclass.{m}" for m in MODULES])
def test_exported_names_have_docstrings(name):
    # Read from the source: a dataclass without one gets its signature as
    # __doc__.  A module without __all__ (cli, errors) exports its public
    # classes and functions.
    module = importlib.import_module(name)
    body = ast.parse(inspect.getsource(module)).body
    defs = {node.name: ast.get_docstring(node) for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    exported = getattr(module, "__all__", [n for n in defs if not n.startswith("_")])
    assert exported and [n for n in exported if not defs.get(n)] == [], name


# The package's names: the union of its modules' __all__.
EXPORTS = [
    "ArgumentOutOfDomain", "BoundaryTooClose", "CampaignConfig", "ComplexSeries",
    "DenominatorVanishes", "DiskClassError", "DiskFunction", "EvalNearZeroDenominator",
    "HankelReport", "InsufficientOrder", "MembershipReport", "NearZeroConstantTerm",
    "NonFiniteValue", "OmegaDecomposition", "PSRecord", "ParamOutOfRange",
    "PartCPrecondition", "RadiusResult", "RadiusUnproven", "ReplayMismatch", "ScanPolicy",
    "SchwarzGenerator", "SecondCoefficientVanishes", "Theorem2Record", "UnknownId",
    "build_member", "canonical_json", "catalog_ids", "catalog_prepends", "convex_quotient",
    "count_zeros_on_disk", "decompose", "extremal_on_circle", "g_transform",
    "h3_profile_bound", "hankel_det", "make_catalog", "mocanu_real_part", "phi_profile",
    "prokhorov_szynal_check", "radius_of", "reduced_h2", "reduced_h3", "replay",
    "run_campaign", "sample_schwarz", "seed_key", "starlike_quotient", "test_class",
    "theorem2_grid", "theorem3_check", "turning_derivative", "u_operator", "write_rows_csv",
]


def test_package_exports_are_pinned():
    assert len(EXPORTS) == 54
    assert sorted(diskclass.__all__) == EXPORTS
