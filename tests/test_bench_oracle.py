import ast

from conftest import BENCH_ORACLE


def test_bench_oracle_imports_nothing_from_the_package():
    # the suite's oracles check the package only while they compute apart from it
    imported = []
    for node in ast.walk(ast.parse(BENCH_ORACLE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert [m for m in imported if m.split(".")[0] == "isummary"] == []
