"""The benchmark's layer trace (perfbench/layertrace.py) on this source tree.

The trace replaces module attributes with span-recording wrappers and looks
its per-layer metrics up by public function name.  A public name it needs
that has gone raises KeyError in metrics(), and a table that bound a route
function when it was built would call around the wrapper, so the route's
spans would be missing.
"""
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (argv, spans the op must record, at least once each)
OPS = [
    (["dmat", "--l-x2", "4", "--theta", "0.7", "--route", "rodrigues"], ["wigner.rodrigues_stack"]),
    (["dmat", "--l-x2", "4", "--theta", "0.7", "--route", "krawtchouk"], ["wigner.krawtchouk_stack"]),
    (["dmat", "--l-x2", "4", "--theta", "0.7", "--phi", "1.2", "--route", "oracle"], ["wigner.oracle_matrix"]),
    (["dmat", "--l-x2", "4", "--matrix", "1,0,1,0,1,0,1,0", "--route", "jacobi"], ["wigner.recurrence_matrix"]),
    (
        ["verify", "--suite", "routes", "--max-l-x2", "1"],
        [
            "wigner.hyp_matrices_by_spin",
            "wigner.jacobi_matrices_by_spin",
            "wigner.rodrigues_stack_by_spin",
            "wigner.krawtchouk_stack_by_spin",
        ],
    ),
]


@pytest.fixture
def layertrace(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace

    return layertrace


def test_traced_ops_record_their_route_spans(layertrace, capsys):
    trace = layertrace.LayerTrace(layertrace.load_modules())
    cli = trace.modules["cli"]
    trace.install()
    try:
        codes = [trace.run_op(op, lambda: cli.main(argv)) for op, (argv, _) in enumerate(OPS)]
    finally:
        trace.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(OPS)
    metrics = trace.metrics(len(OPS))
    assert metrics["cli.main.total_s"] > 0
    spans = [Counter() for _ in OPS]
    for fid, op in zip(trace.fns, trace.ops):
        spans[op][trace.names[fid]] += 1
    for (argv, required), seen in zip(OPS, spans):
        assert all(seen[name] for name in required), (argv, required, seen)
    # dmat --route oracle builds one matrix
    assert spans[2]["wigner.oracle_matrix"] == 1
