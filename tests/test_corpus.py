"""The corpus builders' self-checks fire.

Each named builder declares the structure it promises; a core regression
that changes one reported fact, or that puts every flag on one face, must
make exactly the builders that rely on that fact raise SelfCheckFailed.
"""

import dataclasses

import pytest

from rgp import corpus
from rgp.errors import SelfCheckFailed

BUILDERS = {
    "bridge": lambda: corpus.bridge(1, 1),
    "loop_graph(1,1)": lambda: corpus.loop_graph(1, 1),
    "loop_graph(2,0)": lambda: corpus.loop_graph(2, 0),
    "twisted_loop": corpus.twisted_loop,
    "banana_planar": lambda: corpus.banana(3),
    "banana_nonplanar": lambda: corpus.banana(3, planar=False),
    "double_tadpole": corpus.double_tadpole,
    "dumbbell": corpus.dumbbell,
    "linear_tree3": corpus.linear_tree3,
    "path_tree": lambda: corpus.path_tree(3),
    "star": lambda: corpus.star(3, True),
    "cycle_graph": lambda: corpus.cycle_graph(4, {1: (1, 1)}),
    "triangle": lambda: corpus.triangle(True),
    "broken_cycle3": corpus.broken_cycle3,
    "sunset": corpus.sunset,
    "single_vertex": lambda: corpus.single_vertex(2),
}

RAISERS = {
    "v": set(BUILDERS) - {"path_tree"},
    "e": set(BUILDERS) - {"path_tree"},
    "faces": set(BUILDERS) - {"single_vertex"},
    "f": {"bridge", "linear_tree3", "single_vertex", "star", "sunset", "triangle"},
    "euler_genus": {"banana_planar", "banana_nonplanar", "broken_cycle3",
                    "cycle_graph", "dumbbell", "double_tadpole"},
    "orientable": {"banana_nonplanar", "bridge", "loop_graph(1,1)",
                   "loop_graph(2,0)", "double_tadpole", "twisted_loop"},
}


def _raisers() -> set:
    out = set()
    for name, build in BUILDERS.items():
        try:
            build()
        except SelfCheckFailed:
            out.add(name)
    return out


def test_unperturbed_builders_pass():
    assert _raisers() == set()


@pytest.mark.parametrize("field", sorted(RAISERS))
def test_a_wrong_fact_fails_the_builders_that_declare_it(monkeypatch, field):
    real = corpus.structure_report

    def perturbed(g):
        rep = real(g)
        old = getattr(rep, field)
        return dataclasses.replace(rep, **{field: not old if field == "orientable" else old + 1})

    monkeypatch.setattr(corpus, "structure_report", perturbed)
    assert _raisers() == RAISERS[field]


def test_flags_on_one_merged_face_fail_the_builders_that_separate_them(monkeypatch):
    real = corpus.face_sets
    monkeypatch.setattr(corpus, "face_sets", lambda g: [frozenset().union(*real(g))])
    assert _raisers() == {"broken_cycle3", "cycle_graph", "loop_graph(1,1)", "sunset"}
