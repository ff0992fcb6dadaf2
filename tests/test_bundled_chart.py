import json
from importlib import resources

import numpy as np

from tomopack.cli import main
from tomopack.hilbert import quorum_from_chart
from tomopack.metrics import evaluate_quorum, extend_to_maximal, orthoplex_report
from tomopack.reference import BUNDLED_CHART_N6, bundled_chart_n6


def test_bundled_chart_is_near_optimal():
    angles = bundled_chart_n6()
    assert angles.shape == (612,)
    report = evaluate_quorum(quorum_from_chart(angles, 6, 3))
    assert report.relative_deviation <= 5e-5
    assert report.ln_l <= -0.7
    assert not report.degenerate


def test_bundled_chart_extension_approaches_orthoplex():
    quorum = quorum_from_chart(bundled_chart_n6(), 6, 3)
    maximal = extend_to_maximal(quorum)
    report = orthoplex_report(maximal, 1e-2)
    # the 35 complementary pairs sit at d^2 = 3 by construction and are not
    # scored; every other pair sits within 1e-2 of 3/2.  The extremes are
    # sums of 36 products, so rounding moves them by ~1e-15.
    assert report.pairs_total == 2380
    assert report.at_bound == 2380
    assert report.all_unbiased
    assert abs(report.min_d2 - 1.4979908575430558) <= 1e-12
    assert abs(report.max_d2 - 1.5020091424569442) <= 1e-12


def test_bundled_chart_evaluates_through_cli(capsys):
    path = resources.files("tomopack.data") / BUNDLED_CHART_N6
    with resources.as_file(path) as real_path:
        code = main(["evaluate", str(real_path)])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["relative_deviation"] <= 5e-5
    assert doc["quality"] > 1206.6
