"""The benchmark's traced hooks against the library as it is now.

A hook reads its target's parameters by name, so a renamed parameter would
break only a traced benchmark run; ``perfbench/test_harness.py`` checks no
more than that each target resolves.  Here every target runs once under the
tracer, on sweep cells and CLI commands small enough for the unit tests."""

import sys
import warnings
from itertools import product
from pathlib import Path

from ccme import cli, synthbench
from ccme.estimators import Hyper

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = Hyper(n_feats=4, hidden=[8], epochs_df1=5, epochs_df2=5,
             epochs_nk1=5, epochs_nk2=5)


def test_every_hook_runs_on_the_cells_and_commands_it_traces(tmp_path, capsys):
    test_v = synthbench.eval_points(5, 3)
    shared: dict = {}
    tracer = Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with tracer.traced(layers.TARGETS):
            records = [synthbench.run_cell(synthbench.SweepCell(m, v, s, 40, 3),
                                           TINY, test_v, 50, shared=shared)
                       for m, v, s in product(["rr", "df", "nk"],
                                              ["dr", "ipw", "pi", "onestep"],
                                              ["a", "b"])]
            sim, model = str(tmp_path / "sim.csv"), str(tmp_path / "m.npz")
            codes = [cli.main(["simulate", "--n", "200", "--seed", "1", "--out", sim]),
                     cli.main(["fit", sim, "--model-out", model]),
                     cli.main(["density", model, "--v", "1,1,1,1,1",
                               "--out", str(tmp_path / "d.csv")])]
    capsys.readouterr()
    assert [(r.method, r.variant, r.scenario, r.error) for r in records
            if r.error] == []
    assert codes == [0, 0, 0]
    assert tracer.missing == []
    calls = {name: row["calls"] for name, row in
             layers.layer_table(tracer.spans, layers.TARGETS).items()}
    assert [name for name, count in calls.items() if count == 0] == []
    assert set(layers.extra_counts(tracer.counts, calls)) >= set(layers.EXTRA_COUNTS)
