import pytest

import support
from plumbsw.decomp import euclid_divide
from plumbsw.graph import parse_graph
from plumbsw.lattice import lattice_of
from plumbsw.series import Box, reduce, taylor, zeta
from plumbsw.swcore import quadratic_check, sw_report


def test_records_are_immutable():
    g = support.sigma257()
    f = reduce(zeta(g), ["E1"])
    fields = [
        (next(sw_report(g)), ("h", "values", "errors", "agree", "sw_norm_neg", "raw")),
        (quadratic_check(g, samples=1), ("samples",)),
        (taylor(f, Box((15,))), ("terms", "window", "active", "d")),
        (euclid_divide(f), ("lat", "active", "by_s", "denominator", "residue", "htag")),
        (zeta(g), ("lat",)),
    ]
    for record, names in fields:
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


def test_equal_graphs_share_one_lattice():
    # graphs hash and compare by their fields, so a graph parsed twice is
    # one key of the lattice cache
    text = support.VALENCY4_TREE
    assert lattice_of(parse_graph(text)) is lattice_of(parse_graph(text))
