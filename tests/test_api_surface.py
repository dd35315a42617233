"""Every public name of decowalk has a caller in the package or the benchmark.

A name counts as used when it appears as an identifier in
src/decowalk/*.py other than __init__.py (its own def or class line
excluded), or as an identifier or a whole string literal in
perfbench/*.py, where the tracer patches attributes by name.  Comments
and docstrings do not count.  Names kept without such a caller are
listed in ALLOWED, each with its reason.  The names that decide how a
mode sum is evaluated are identifiers of evolution.py alone.
"""

import inspect
import io
import keyword
import pathlib
import tokenize

import decowalk

ROOT = pathlib.Path(__file__).resolve().parents[1]

ALLOWED = {
    "optimal_gamma": "the refined optimum; ROADMAP item 4 (scaling of the optimum) calls it",
    "rho_to_s": "the change of variables S = i^(k-j) rho that the intertwining tests check",
}


def _public_names():
    return sorted(
        name for name in dir(decowalk)
        if not name.startswith("_") and not inspect.ismodule(getattr(decowalk, name))
    )


def _references(path, strings):
    """Identifiers used in a file, minus the name a def or class introduces."""
    found = set()
    previous = None
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    for tok in tokens:
        if tok.type == tokenize.NAME and previous not in ("def", "class"):
            found.add(tok.string)
        elif strings and tok.type == tokenize.STRING:
            text = tok.string.strip("\"'")
            if text.isidentifier() and not keyword.iskeyword(text):
                found.add(text)
        if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
            previous = tok.string
    return found


def _used_names():
    used = set()
    for path in sorted((ROOT / "src" / "decowalk").glob("*.py")):
        if path.name != "__init__.py":
            used |= _references(path, strings=False)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _references(path, strings=True)
    return used


def test_every_public_name_has_a_caller():
    used = _used_names()
    unused = [name for name in _public_names() if name not in used and name not in ALLOWED]
    assert unused == []


def test_every_allowed_name_is_public_and_still_uncalled():
    public, used = set(_public_names()), _used_names()
    for name in ALLOWED:
        assert name in public, f"{name} is no longer public; drop it from ALLOWED"
        assert name not in used, f"{name} now has a caller; drop it from ALLOWED"


MODE_SUM_INTERNALS = ("lead_lag", "envelope_leads", "_CHUNK_ENTRIES", "irfft")


def test_mode_sum_internals_stay_in_evolution():
    # One module decides how mode sums split times, cut at their envelope,
    # chunk and combine: every other module goes through ModeSum.
    where = {
        path.name: sorted(set(MODE_SUM_INTERNALS) & _references(path, strings=False))
        for path in sorted((ROOT / "src" / "decowalk").glob("*.py"))
    }
    assert {name: found for name, found in where.items()
            if found and name != "evolution.py"} == {}
    assert set(where["evolution.py"]) == set(MODE_SUM_INTERNALS)
