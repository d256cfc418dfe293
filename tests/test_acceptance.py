"""The acceptance suite: one test and one printed pass/fail line per
criterion.  The criteria themselves live in ellgenus.criteria (shared with
`ellgenus verify all`)."""

import pytest

from ellgenus.criteria import CRITERIA


@pytest.mark.parametrize(
    "num,title,fn", CRITERIA, ids=[f"criterion_{n}" for n, _, _ in CRITERIA]
)
def test_criterion(num, title, fn, capsys):
    ok, detail = fn()
    with capsys.disabled():
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] criterion {num}: {title}")
    assert ok, f"criterion {num} ({title}): {detail}"
