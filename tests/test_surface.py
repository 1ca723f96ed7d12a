"""The library surface is what qlr itself, the acceptance contract or the
README uses: every public function and method, and every private
module-level helper, is named by other src/qlr code, by
tests/test_acceptance.py or by a README line.  The def itself and the
re-export in __init__.py do not count."""

from test_unused import ROOT, SOURCE, unnamed

USERS = [p for p in SOURCE.glob("*.py") if p.name != "__init__.py"]
USERS += [ROOT / "tests" / "test_acceptance.py", ROOT / "README.md"]


def test_every_public_name_is_used_outside_the_tests():
    assert unnamed(USERS) == []
