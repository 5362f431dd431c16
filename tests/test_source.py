"""Checks on the library source itself."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "gpolyvlp"
SOURCES = sorted(PACKAGE_DIR.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # silently stops being checked; invariants raise InternalInvariantError.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


def test_scalars_are_read_through_the_backend_neutral_api():
    # gmpy2's mpq has .numerator and .denominator but neither
    # fractions.Fraction's private _numerator/_denominator, so code that
    # reads those, or imports fractions outside the backend choice in
    # exact.py, works only on the fallback backend
    private = []
    imports = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("_numerator", "_denominator"):
                private.append(f"{path.name}:{node.lineno}")
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            if any(name.split(".")[0] == "fractions" for name in names):
                imports.append(path.name)
    assert private == []
    assert imports == ["exact.py"]


def test_conversions_import_no_rational_elimination():
    # h_to_v, v_to_h and assemble_vrep eliminate and project on the int
    # double description core; exact.py's rational routines stay for the
    # oracles and the cone views
    tree = ast.parse((PACKAGE_DIR / "polyhedron.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported.isdisjoint({"rref", "complement_projector", "solve_linear", "kernel_basis"})


def test_pipeline_builds_no_rational_hreps():
    # every LP and every weight region of vlp.py is written as int rows
    # from the problem's int data: no HRep.of, and no argmin_face, which
    # builds one
    tree = ast.parse((PACKAGE_DIR / "vlp.py").read_text(encoding="utf-8"))
    calls = [
        f"vlp.py:{node.lineno} {name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for name in [ast.unparse(node.func)]
        if name == "HRep.of" or name.split(".")[-1] == "argmin_face"
    ]
    assert calls == []


def test_pipeline_reads_no_rational_cone_decomposition():
    # every weight and witness of vlp.py is checked on the int split of K
    # (cone._dual_weight); the rational view is built only by its own
    # property and by projector, for the CLI and the oracles
    views = {"decomposition", "dual_generators", "ri_dual_contains"}
    tree = ast.parse((PACKAGE_DIR / "vlp.py").read_text(encoding="utf-8"))
    reads = [
        f"vlp.py:{node.lineno} {function.name} {node.attr}"
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        and function.name not in ("decomposition", "projector")
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr in views
    ]
    assert reads == []


def _calls_named(source: str, name: str) -> list:
    tree = ast.parse((PACKAGE_DIR / source).read_text(encoding="utf-8"))
    return [
        f"{source}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name
    ]


def test_interior_oracle_stays_independent_of_the_rank_test():
    # the set routines decide an empty interior by the rank of the cone
    # decomposition; the all-faces oracle keeps the phase-one LP, so the
    # two routes share no interior test
    assert _calls_named("vlp.py", "has_nonempty_interior") == []
    assert _calls_named("crosscheck.py", "has_nonempty_interior") != []


def _functions(source: str) -> list:
    tree = ast.parse((PACKAGE_DIR / source).read_text(encoding="utf-8"))
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]


def _callers(name: str) -> list:
    return sorted(
        node.name
        for path in SOURCES
        for node in _functions(path.name)
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call) and ast.unparse(call.func).split(".")[-1] == name
            for call in ast.walk(node)
        )
    )


def test_one_simplex_core():
    # the general simplex has one column layout, the split x = x+ - x-:
    # one tableau, one phase one and one simplex, and the row writer, which
    # writes the split, has exactly one caller, whose rows are over free
    # variables only; no tableau column is flipped and no entry writes its
    # own split
    core = ("_Tableau", "_write_rows", "_phase_one", "_simplex")
    defined = Counter(
        (path.name, node.name)
        for path in SOURCES
        for node in _functions(path.name)
        if node.name in core
    )
    assert defined == {("lp.py", name): 1 for name in core}
    assert _callers("_write_rows") == ["_optimize_rows"]
    (optimize,) = [f for f in _functions("lp.py") if f.name == "_optimize_rows"]
    assert [a.arg for a in optimize.args.args] == ["dim", "eqs", "ineqs", "cost"]
    assert optimize.args.defaults == [] and optimize.args.kwonlyargs == []
    (tableau,) = [f for f in _functions("lp.py") if f.name == "_Tableau"]
    assert "flip" not in {f.name for f in tableau.body if isinstance(f, ast.FunctionDef)}
    assert not any(f.name == "_split_rows" for path in SOURCES for f in _functions(path.name))


def test_cone_core_serves_the_per_point_programs():
    # the efficiency tests' slack programs and the argmin re-checks of the
    # witnesses and of connect run on the cone core, which checks its own
    # answers in ints; the general simplex serves the public LP entries and
    # the oracles' weight regions, and no per-point program reaches it
    assert _callers("_cone_descent") == ["_max_slack", "_verify_argmin"]
    assert _callers("_solve_rows") == [
        "argmin_face",
        "face_scalarizable",
        "feasible",
        "parametric_breakpoints",
    ]
    assert _callers("_optimize_rows") == ["_solve_rows", "solve_lp"]


def _names_used(source: str, functions: tuple, idents: set) -> list:
    """Where the bodies of the named top-level functions of source refer to
    a name or an attribute in idents, nested functions included; the
    signatures' annotations are not read."""
    tree = ast.parse((PACKAGE_DIR / source).read_text(encoding="utf-8"))
    found = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in functions
    }
    assert sorted(found) == sorted(functions)
    return [
        f"{source}:{node.lineno} {name} {ident}"
        for name, function in found.items()
        for statement in function.body
        for node in ast.walk(statement)
        for ident in [getattr(node, "id", None) or getattr(node, "attr", None)]
        if isinstance(node, (ast.Name, ast.Attribute)) and ident in idents
    ]


def test_per_point_programs_are_written_in_ints():
    # the slack programs and the argmin re-checks take their rows and their
    # int cost from the problem's int frame, with no rational in between,
    # and the slack verdict is an int
    rational = {"Vector", "ONE", "ZERO", "tmatvec"}
    functions = (
        "_max_slack",
        "_slack_program",
        "_verify_argmin",
        "_argmin_program",
        "_verify_constant",
    )
    assert _names_used("vlp.py", functions, rational) == []


def test_connect_is_written_in_ints():
    # connect interpolates the witnesses' int weights, builds its costs from
    # the int image rows and certifies its path on tangent cones: no
    # rational objective, no rational point scaled back to ints, and no LP
    # over D
    banned = {"tmatvec", "Vector", "_int_vector", "_min_over_d"}
    assert _names_used("vlp.py", ("connect",), banned) == []
