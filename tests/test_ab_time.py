import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def ab_time(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "scripts"))  # it imports same_bytes
    spec = importlib.util.spec_from_file_location("ab_time", REPO / "scripts" / "ab_time.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stand_in(tmp_path, tree, verdict):
    """A src/ whose `cli.main` appends its tree and verb to tmp_path/order.txt,
    prints `verdict` as a `check` would and exits 0."""
    package = tmp_path / tree / "src" / "sdfs_jcm"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "def main(argv):\n"
        "    with open('../order.txt', 'a') as handle:\n"
        f"        handle.write({tree!r} + ' ' + argv[0] + '\\n')\n"
        f"    print({verdict!r} + ' stand-in')\n"
        "    return 0\n"
    )
    return package.parent


def test_two_pairs_run_in_fresh_workers_with_alternating_order(ab_time, tmp_path):
    trees = [_stand_in(tmp_path, "base", "PASS"), _stand_in(tmp_path, "head", "FAIL")]
    report = ab_time.measure(trees, ["check"], 2, tmp_path)
    # per pair, fresh workers pass once each to warm up, then time a pass each in
    # an order that alternates
    order = (tmp_path / "order.txt").read_text().split("\n")[:-1]
    trees = ("base", "head", "base", "head") + ("base", "head", "head", "base")
    assert order == [f"{tree} check" for tree in trees]
    # perfbench's output check fails the head's FAIL line despite its exit 0,
    # in both pairs; the warm-up pass is not counted
    assert report["check"]["failed"] == [0, 2]
    for metric in ("wall_s", "process_s"):
        stats = report["check"][metric]
        assert stats["pairs"] == 2 and 0 <= stats["faster"] <= 2
        assert stats["p"] >= 0.5 and not stats["resolved"]
        assert stats["interval"] is None  # no interval of 2 pairs covers the median at 99 %


def test_the_sign_test_resolves_a_steady_gain_and_not_noise(ab_time):
    gain = ab_time.paired([1.0] * 20, [0.9] * 20)
    assert gain["faster"] == 20 and gain["resolved"] and gain["p"] == 2.0**-19
    assert gain["diff"] == pytest.approx(-0.1) and gain["interval"] == [gain["diff"]] * 2
    noise = ab_time.paired([0.0] * 20, list(range(-10, 10)))
    assert noise["faster"] == 10 and noise["p"] == 1.0 and not noise["resolved"]
    # at n = 20 the 99 % interval runs from the 4th to the 17th order statistic
    assert noise["diff"] == -0.5 and noise["interval"] == [-7, 6]
    # the 99 % interval needs 8 pairs: [min, max] of 7 covers the median 98.4 % of the time
    assert ab_time.paired([1.0] * 8, [0.9] * 8)["interval"] is not None
    for n in (2, 7):
        assert ab_time.paired([1.0] * n, [0.9] * n)["interval"] is None
    # a gain is claimed where the working tree wins 9 of 10 pairs and its median
    # is below the base's by more than the base's interquartile range
    assert gain["base_iqr"] == 0.0 and gain["claim"] and not noise["claim"]
    base = [1.0 + 0.01 * (k % 5) for k in range(20)]  # quartiles 1.01 and 1.03
    steady = ab_time.paired(base, [b - 0.1 for b in base])
    assert steady["base_iqr"] == pytest.approx(0.02) and steady["claim"]
    # 18 of 20 wins still claim; 17 do not
    for wins, claim in ((18, True), (17, False)):
        head = [b - 0.1 if k < wins else b + 0.1 for k, b in enumerate(base)]
        assert ab_time.paired(base, head)["faster"] == wins
        assert ab_time.paired(base, head)["claim"] is claim
    # every pair won, but by less than the spread of the base's passes
    assert not ab_time.paired(base, [b - 0.01 for b in base])["claim"]
    noise = ab_time.paired(base, base[::-1])
    assert noise["base_iqr"] == steady["base_iqr"] and not noise["claim"]
    assert ab_time.paired([1.0], [0.5])["base_iqr"] == 0.0
