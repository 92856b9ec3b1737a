"""The benchmark tracer (bench/tracing.py) still finds every name it wraps.

It wraps package attributes by name, so deleting or renaming one breaks
`bench/run.py --trace 1`; this catches that in the package's own suite.
"""

from pathlib import Path

import pytest

from recycled_mzi.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


def test_tracer_wraps_and_restores_every_name(tracing, tmp_path):
    targets = [(namespace, name) for namespace, name, _ in tracing._patches(tracing.Tracer())]
    originals = [tracing._get(namespace, name) for namespace, name in targets]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert all(tracing._get(namespace, name) is not original
                   for (namespace, name), original in zip(targets, originals))
        assert main(["point", "--phi", "1", "--theta0", "2", "--loss", "0.2"]) == 0
        assert main(["sweep", "--metric", "lambda1", "--loss", "0.1", "--n", "4",
                     "--out", str(tmp_path / "s.csv")]) == 0
    assert all(tracing._get(namespace, name) is original
               for (namespace, name), original in zip(targets, originals))
    assert tracer.calls["landscape.sweep"] == 1
    assert tracer.calls["cli.write"] == 1
