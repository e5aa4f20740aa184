"""The ``paper-figures`` area: one inline run at the paper's own scale
(every figure postcondition holds on the fresh document), then one
mutated-document test per postcondition — each flips a single measured
cell against one of the paper's claims and expects that figure, naming
that claim, to refuse the document."""

import copy

import pytest

from repro.bench.sweep import find_series, load_areas

AREA = "paper-figures"
POSTS = {post.__name__: post
         for post in load_areas()[AREA].postconditions}


@pytest.fixture(scope="module")
def doc(paper_figures_doc):
    return paper_figures_doc                # deep-copy before mutating


def _curve(doc, topology, nprocs, impl, platform="udp"):
    return find_series(doc, "curve", platform=platform, topology=topology,
                       nprocs=nprocs, impl=impl)["metrics"]


def _barrier(doc, impl, nprocs):
    return find_series(doc, "barrier", impl=impl, nprocs=nprocs)["metrics"]


MED_0, MED_2500, MED_3000, MED_5000 = (
    f"latency_us_median_{size:04d}" for size in (0, 2500, 3000, 5000))


def test_area_runs_inline_and_covers_the_grid(doc):
    families = {}
    for entry in doc["series"]:
        families[entry["family"]] = families.get(entry["family"], 0) + 1
    assert families == {"curve": 20, "barrier": 16, "framecounts": 32,
                        "overrun": 12, "paced": 3}
    for entry in doc["series"]:
        if entry["family"] == "curve":
            # median/min/max at each of the paper's 11 sizes, all banded
            assert len(entry["metrics"]) == 33
            assert all(m.startswith("latency") for m in entry["metrics"])
    # both scales are the paper's scale
    spec = load_areas()[AREA]
    keys = [[(f.name, f.axes) for f in spec.families(scale)]
            for scale in ("gate", "full")]
    assert keys[0] == keys[1]


def swap_fig7(doc):
    mpich, binary = (_curve(doc, "hub", 4, impl)
                     for impl in ("p2p-binomial", "mcast-binary"))
    mpich[MED_5000], binary[MED_5000] = binary[MED_5000], mpich[MED_5000]


def slow_fig8(doc):
    _curve(doc, "switch", 4, "p2p-binomial")[MED_0] = \
        _curve(doc, "switch", 4, "mcast-binary")[MED_0] + 1.0


def slow_fig9(doc):
    _curve(doc, "switch", 6, "p2p-binomial")[MED_5000] = \
        1.5 * _curve(doc, "switch", 6, "mcast-binary")[MED_5000]


def slow_fig10(doc):
    _curve(doc, "switch", 9, "mcast-binary")[MED_2500] = \
        1.10 * _curve(doc, "switch", 9, "mcast-linear")[MED_2500]


def slow_fig11(doc):
    _curve(doc, "hub", 4, "mcast-binary")[MED_3000] = \
        _curve(doc, "switch", 4, "mcast-binary")[MED_3000] + 1.0


def steep_fig12(doc):
    lin3, lin9 = (_curve(doc, "switch", n, "mcast-linear") for n in (3, 9))
    lin9[MED_5000] = lin3[MED_5000] + 2.0 * (lin9[MED_0] - lin3[MED_0])


def slow_fig13(doc):
    _barrier(doc, "mcast", 5)["latency_us_median"] = \
        _barrier(doc, "p2p-mpich", 5)["latency_us_median"] + 1.0


def fast_ack(doc):
    _curve(doc, "switch", 6, "mcast-ack")[MED_0] = 0.95 * min(
        _curve(doc, "switch", 6, impl)[MED_0]
        for impl in ("mcast-binary", "mcast-linear"))


def paced_drop(doc):
    find_series(doc, "paced", payload=500)["metrics"]["drops_not_posted"] = 1


def flat_via(doc):
    _curve(doc, "switch", 9, "mcast-binary", "via")[MED_5000] = \
        _curve(doc, "switch", 9, "p2p-binomial", "via")[MED_5000]


def extra_scout(doc):
    find_series(doc, "framecounts", n=7,
                m=5000)["metrics"]["frames_mcast_scout"] += 1


#: postcondition -> (one-cell mutation, the claim it must name)
CASES = {
    "fig7": (swap_fig7, r"fig7: mcast-\w+ under 0\.75x MPICH at 5000 B"),
    "fig8": (slow_fig8, r"fig8: MPICH beats mcast-binary at 0 B"),
    "fig9": (slow_fig9, r"fig9: MPICH / mcast-binary over 1\.6 at 5000 B"),
    "fig10": (slow_fig10,
              r"fig10: mcast-binary within 1\.05x mcast-linear at 2500 B"),
    "fig11": (slow_fig11, r"fig11: mcast-binary faster on the hub than "
                          r"the switch at 3000 B"),
    "fig12": (steep_fig12, r"fig12: mcast-linear's 9-vs-3 gap flat"),
    "fig13": (slow_fig13,
              r"fig13: multicast barrier beats MPICH at 5 processes"),
    "ablation_reliability": (fast_ack, r"ablation: mcast-ack within 3% of "
                                       r"the best scouted variant at 0 B"),
    "overrun": (paced_drop,
                r"overrun: the paced schedule drops nothing at 500 B"),
    "via": (flat_via, r"via: the 5000 B multicast win grows on VIA"),
    "framecounts": (extra_scout,
                    r"framecounts: framecounts\[m=5000,n=7\] "
                    r"frames_mcast_scout 7 != model_mcast_scouts 6"),
}


def test_every_postcondition_has_a_mutation():
    assert set(CASES) == set(POSTS)


@pytest.mark.parametrize("figure", CASES)
def test_postcondition_bites(doc, figure):
    mutate, claim = CASES[figure]
    POSTS[figure](doc)                      # holds on what was measured
    mutated = copy.deepcopy(doc)
    mutate(mutated)
    with pytest.raises(AssertionError, match=claim):
        POSTS[figure](mutated)
