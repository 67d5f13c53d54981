"""The exact-recovery yardstick (tests/exact_recovery.py) at n <= 12."""

import exact_recovery
from digest import VARIANTS


def test_every_variant_has_a_row_and_extra_rows_recover_exactly():
    rows = exact_recovery.rows([11, 12])
    assert [(row.variant, row.n) for row in rows] == [(name, n) for n in (11, 12) for name in VARIANTS]
    for row in rows:
        local = VARIANTS[row.variant].mode == "local"
        assert row.states == (exact_recovery.LOCAL_STATES if local else exact_recovery.ENTANGLED_STATES)
        assert 0 <= row.above <= row.states and row.worst < 1.0
        if row.variant == "extra-rows":
            assert row.above == 0 and row.worst <= exact_recovery.THRESHOLD, row


def test_the_script_prints_one_line_per_row(capsys):
    exact_recovery.main(["--n-min", "3", "--n-max", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:5] == ["variant", "n", "states", "above", "worst"]
    want = [(row.variant, str(row.n), str(row.states), str(row.above)) for row in exact_recovery.rows([3, 4])]
    assert [tuple(line.split()[:4]) for line in lines[1:]] == want
