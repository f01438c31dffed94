import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _result(p50, ops):
    return {
        "correct": True,
        "attempted": int(ops) * 30,
        "metrics": {
            "p50_ms": {"value": p50},
            "ops_per_s": {"value": ops},
            "peak_rss_mb": {"value": 50 + p50 / 4},
        },
        "named_metrics": {"verify_product_pairs_per_s": ops / 2},
        "machine_speed": 0.9 + p50 / 10,
    }


def test_summary_on_fixed_numbers():
    """Quartiles by the inclusive method, wins by each metric's direction
    with ties counting for neither side, and the parent's IQR."""
    pairs = [
        (_result(1.0, 100.0), _result(0.5, 110.0)),
        (_result(2.0, 200.0), _result(2.0, 190.0)),  # a p50 tie
        (_result(3.0, 300.0), _result(2.5, 310.0)),
        (_result(4.0, 400.0), _result(3.0, 420.0)),
        (_result(5.0, 500.0), _result(6.0, 500.0)),  # an ops tie
    ]
    p50, ops = bench_pairs.summary(pairs, END_TO_END)
    assert p50["parent"] == (2.0, 3.0, 4.0) and p50["change"] == (2.0, 2.5, 3.0)
    assert (p50["wins"], p50["pairs"], p50["parent_iqr"]) == (3, 5, 2.0)
    assert ops["parent"] == (200.0, 300.0, 400.0) and ops["change"] == (190.0, 310.0, 420.0)
    assert (ops["wins"], ops["parent_iqr"]) == (3, 200.0)
    assert bench_pairs.format_row(ops) == (
        "ops_per_s (1/s, higher is better): parent 300 [200, 400]  change 310 [190, 420]  "
        "change wins 3/5  parent IQR 200"
    )
    assert bench_pairs.requests_line(pairs) == (
        "requests: parent 9000 [6000, 12000]  change 9300 [5700, 12600]"
    )
    assert bench_pairs.named_lines(pairs) == [
        "verify_product_pairs_per_s: parent 150 [100, 200]  change 155 [95, 210]"
    ]
    lines = bench_pairs.pair_lines(pairs)
    assert len(lines) == 2 * len(pairs)
    assert lines[4:6] == [
        "peak_rss_mb@requests pair 3: parent 50.75@9000 change 50.62@9300",
        "machine_speed pair 3: parent 1.200 change 1.150",
    ]


def test_summary_of_one_pair():
    """One pair, as in a smoke run: every quartile is the one value."""
    [p50, _] = bench_pairs.summary([(_result(1.5, 10.0), _result(1.25, 12.0))], END_TO_END)
    assert p50["parent"] == (1.5, 1.5, 1.5) and p50["wins"] == 1 and p50["parent_iqr"] == 0.0


# verdict's rules in order, on synthetic runs of a lower-is-better metric
# with a bound of 0.25 (parent median 1.0, quartiles by the inclusive method).
PARENT = [0.9, 0.92, 0.94, 0.96, 1.0, 1.0, 1.04, 1.06, 1.08, 1.1]  # IQR 0.11


def test_verdict_gain_needs_nine_in_ten_wins_and_the_iqr():
    change = [0.8] * 10
    assert bench_pairs.verdict(PARENT, change, False, 0.25) == "gain"
    # 9 wins of 10 is enough; 8 is not
    assert bench_pairs.verdict(PARENT, [0.8] * 9 + [1.2], False, 0.25) == "gain"
    assert bench_pairs.verdict(PARENT, [0.8] * 8 + [1.2] * 2, False, 0.25) == "within bound"
    # 10 wins, but the medians differ by no more than the parent's IQR
    assert bench_pairs.verdict(PARENT, [p - 0.01 for p in PARENT], False, 0.25) == "within bound"
    # the same rule for a higher-is-better metric
    assert bench_pairs.verdict(PARENT, [1.2] * 10, True, 0.25) == "gain"


def test_verdict_unresolved_when_the_parent_spreads_past_the_bound():
    spread = [0.5, 0.6, 0.7, 1.0, 1.0, 1.0, 1.0, 1.4, 1.5, 1.6]  # IQR 0.525
    assert bench_pairs.verdict(spread, [1.0] * 10, False, 0.25) == "unresolved"
    assert bench_pairs.verdict(spread, [1.6] * 10, False, 0.25) == "unresolved"
    # every change run beats every parent run: not unresolved, and a gain
    # only past the IQR
    assert bench_pairs.verdict(spread, [0.49] * 10, False, 0.25) == "within bound"
    assert bench_pairs.verdict(spread, [0.4] * 10, False, 0.25) == "gain"
    assert bench_pairs.verdict(spread, [1.7] * 10, True, 0.25) == "gain"


def test_verdict_worse_past_the_bound_and_within_it():
    assert bench_pairs.verdict(PARENT, [1.3] * 10, False, 0.25) == "worse"
    assert bench_pairs.verdict(PARENT, [1.2] * 10, False, 0.25) == "within bound"
    assert bench_pairs.verdict(PARENT, [0.7] * 10, True, 0.25) == "worse"
    assert bench_pairs.verdict(PARENT, [0.8] * 10, True, 0.25) == "within bound"


def test_summary_rows_carry_the_verdict():
    pairs = [(_result(1.0, 100.0), _result(0.5, 130.0)) for _ in range(3)]
    p50, ops = bench_pairs.summary(pairs, END_TO_END)
    assert (p50["verdict"], ops["verdict"]) == ("gain", "gain")
