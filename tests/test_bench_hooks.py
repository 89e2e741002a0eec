"""Every function the benchmark's spans patch still resolves, so a rename
fails here rather than in a traced benchmark run; a channel prune event
fires only its own prune marker; and a connection prune event calls its
phases through the names the spans patch, so the stall accounting still
finds its marker.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from spikeprune import structured
from spikeprune.network import SpikingNetwork, vgg_mini
from spikeprune.unstructured import SparsitySchedule, prune_loop
from spikeprune.verify import tiny_run


def load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module,path", [(m, p) for m, p, _, _ in spans.PROBES + spans.FULL])
def test_hook_point_resolves(module, path):
    owner, attr = spans.resolve(module, path)
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("traced", [False, True])
def test_channel_event_fires_only_the_channel_marker(traced):
    net = SpikingNetwork(vgg_mini(input_shape=(1, 8, 8), channels=(3, 4), classes=2),
                         np.random.default_rng(0))
    scores = {i: np.linspace(0.0, 1.0, l.channels) for i, l in enumerate(net.layers)
              if l.kind == "batchnorm"}
    tracer = spans.Tracer()
    with spans.Installed(tracer, traced=traced):
        structured.prune_and_regenerate_channels(net, 0.5, 0.5, scores)
    assert [s.name for s in tracer.spans] == ["structured.prune_and_regenerate_channels"]


@pytest.mark.parametrize("traced", [False, True])
def test_connection_event_fires_its_phase_spans(traced):
    net, trainer, _ = tiny_run(seed=5)
    sched = SparsitySchedule(s_f=0.9, delta_t=2, t_f=4, r=0.5)
    tracer = spans.Tracer()
    with spans.Installed(tracer, traced=traced):
        result = prune_loop(net, trainer, sched, epochs=2)
    names = [s.name for s in tracer.spans]
    phases = ["unstructured.prune_global_magnitude"]
    if traced:
        phases += ["unstructured.regenerate", "criticality.network_connection_scores",
                   "criticality.score_batch"]
    assert len(result.events) == 2
    for name in phases:
        assert names.count(name) == len(result.events), name
