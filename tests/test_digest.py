"""The digests of tests/digest.py: bit identity on their grids up to n = 4, and the record boundaries' refusals."""

import dataclasses
import hashlib
import json
import os
import re

import numpy as np

import digest
from purestate.states import haar_random
from purestate.bases import default_family, estimation_basis_ids
from purestate.measurement import born_tables, counts_data_to_dict, exact_record
from purestate.reconstruction import AmbiguityError, reconstruct


def test_digests_are_reproducible_and_tell_the_variants_apart():
    first = digest.digests(n_max=4)
    assert first == digest.digests(n_max=4)
    # 7 families x n = 1..4, less phi4 and ghz at n = 1, x 2 seeds x 3 record sets; the fail policy runs all three
    per_variant = (7 * 4 - 2) * 2 * 3
    expected = {**dict.fromkeys(digest.VARIANTS, per_variant), digest.FAIL: 3 * per_variant}
    assert {name: runs for name, (_, runs) in first.items()} == expected
    hexdigests = [h for h, _ in first.values()]
    assert all(re.fullmatch("[0-9a-f]{64}", h) for h in hexdigests)
    assert len(set(hexdigests)) == 4


def test_one_bit_of_any_level_array_or_amplitude_changes_the_digest():
    n, opts = 3, digest.VARIANTS["extra-rows"]
    tables = born_tables(haar_random(n, 5), estimation_basis_ids(n, 2, "local"), default_family(2))
    records = [exact_record(t) for t in tables]
    state, diag = reconstruct(records, n, opts)

    def hexdigest():
        h = hashlib.sha256()
        digest.update(h, state, diag)
        return h.hexdigest()

    base = hexdigest()
    for i, lv in enumerate(list(diag.levels)):
        for field in lv._fields[1:]:
            a = getattr(lv, field).copy()
            if not a.size:  # a Haar state has no null block
                continue
            kind = a.dtype.kind
            a[0] = np.nextafter(a[0], np.inf) if kind == "f" else ~a[0] if kind == "b" else a[0] + 1
            diag.levels[i] = lv._replace(**{field: a})
            assert hexdigest() != base, (lv.j, field)
        diag.levels[i] = lv
    assert hexdigest() == base
    state = type(state)(n=n, amps=np.nextafter(state.amps.real, 2.0) + 1j * state.amps.imag)
    assert hexdigest() != base


def test_the_script_prints_one_line_per_variant(capsys):
    digest.main(["--n-max", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [*digest.VARIANTS, digest.FAIL]
    assert [line.split()[1:] for line in lines] == [[h, str(runs)] for h, runs in digest.digests(n_max=2).values()]


def test_the_fail_digest_hashes_raises_and_returns(monkeypatch):
    # at cond_threshold FAIL_THRESHOLD some runs of the grid raise and the others return an estimate
    outcomes = []
    update_fail = digest.update_fail
    monkeypatch.setattr(digest, "update_fail", lambda *args: outcomes.append(update_fail(*args)) or outcomes[-1])
    _, runs = digest.digests(n_max=4)[digest.FAIL]
    assert len(outcomes) == runs
    assert 0 < sum(outcomes) < runs


def test_a_raise_moved_to_another_block_changes_the_fail_digest(monkeypatch):
    def hexdigest(error):
        def fail(*args):
            raise error

        monkeypatch.setattr(digest, "reconstruct", fail)
        h = hashlib.sha256()
        assert digest.update_fail(h, [], 3, digest.FAIL_VARIANTS["extra-rows"])
        return h.hexdigest()

    inf, finite = "condition number inf above threshold", "condition number 7.5 above threshold"
    base = hexdigest(AmbiguityError(2, 1, inf))
    assert base == hexdigest(AmbiguityError(2, 1, inf))
    for moved in ((3, 1, inf), (2, 0, inf), (2, 1, finite)):
        assert hexdigest(AmbiguityError(*moved)) != base, moved


def test_the_io_digest_is_reproducible_and_counts_every_file():
    first = digest.io_digest(n_max=4)
    assert first == digest.io_digest(n_max=4)
    # per n one state file and 2 modes x 3 shot counts x 2 noise weights of counts files, each in two layouts,
    # then PHI_FAMILY's two data sets, each in two layouts
    assert re.fullmatch("[0-9a-f]{64}", first[0]) and first[1] == 4 * (1 + 2 * len(digest.IO_SHOTS) * 2 * 2) + 2 * 2
    assert first[0] != digest.io_digest(n_max=3)[0]


def test_the_io_digest_reads_every_data_set_from_the_foreign_layout_too(monkeypatch):
    base = digest.io_digest(n_max=2)[0]
    read_counts, paths = digest.read_counts, []

    def drop_a_foreign_record(path):
        paths.append(os.path.basename(path))
        data = read_counts(path)
        with open(path) as fh:
            text = fh.read()
        return data if "\n" in text else dataclasses.replace(data, records=data.records[:-1])

    monkeypatch.setattr(digest, "read_counts", drop_a_foreign_record)
    assert digest.io_digest(n_max=2)[0] != base
    assert paths == ["file.json", "foreign.json"] * (2 * 2 * len(digest.IO_SHOTS) * 2 + 2)
    # the foreign layout: compact, every record's outcome keys reversed
    data = digest.edited_data()
    text = digest.foreign_text(data)
    assert "\n" not in text and json.loads(text) == counts_data_to_dict(data)
    for rec, back in zip(counts_data_to_dict(data)["records"], json.loads(text)["records"], strict=True):
        assert list(back["counts"]) == list(reversed(rec["counts"]))


def test_the_io_digest_writes_the_phi_family_reduced(monkeypatch):
    written = []
    write_counts = digest.write_counts
    monkeypatch.setattr(digest, "write_counts", lambda path, data: written.append(data) or write_counts(path, data))
    base = digest.io_digest(n_max=1)[0]
    phi_sets = [data for data in written if data.family != default_family(2)]
    assert [(data.n, data.records[-1].basis.tag, data.records[0].shots) for data in phi_sets] == [
        (3, "local", 512),
        (3, "entangled", 512),
    ]
    reduced = [(0.6, 0.8, 7.0 - 2 * np.pi), (0.6, 0.8, 1.0)]
    assert all([(qb.u, qb.v, qb.phi) for qb in data.family] == reduced for data in phi_sets)
    # the family is hashed: another phi moves the digest
    monkeypatch.setattr(digest, "PHI_FAMILY", ((0.6, 0.8, 0.5), (0.6, 0.8, 1.0)))
    assert digest.io_digest(n_max=1)[0] != base


def test_the_script_prints_the_io_digest_with_io(capsys):
    digest.main(["--io", "--n-max", "2"])
    assert capsys.readouterr().out.split() == ["file-io", *map(str, digest.io_digest(n_max=2))]


def test_the_refusal_digest_is_reproducible_and_covers_every_case_at_every_boundary():
    first = digest.refusal_digest()
    assert first == digest.refusal_digest()
    cases = len(digest.malformed_records())
    files = len(digest.EDITS) + 2 * len(digest.MALFORMED_OUTCOMES) + len(digest.BAD_FAMILY_ENTRIES)
    # one more pair: load_state on HUGE_STATE
    assert re.fullmatch("[0-9a-f]{64}", first[0]) and first[1] == 3 * cases + files + 1


def test_the_counts_files_hold_one_fault_each_in_both_layouts(tmp_path):
    files = digest.counts_files()
    assert len(files) == len(digest.EDITS) + 2 * len(digest.MALFORMED_OUTCOMES) + len(digest.BAD_FAMILY_ENTRIES)
    digest.write_counts(tmp_path / "counts.json", digest.edited_data())
    written = (tmp_path / "counts.json").read_text()
    assert all(files[f"edit: {name}"] == edit(written) != written for name, edit in digest.EDITS.items())
    for i, (rec, _) in enumerate(digest.MALFORMED_OUTCOMES):
        indented, compact = files[f"outcome {i}, written layout"], files[f"outcome {i}, compact layout"]
        assert indented.endswith("}\n") and "\n" not in compact
        assert json.loads(indented) == json.loads(compact) and json.loads(compact)["records"] == [rec]
    want = json.loads(written)
    for name, entry in digest.BAD_FAMILY_ENTRIES.items():
        # the second family entry alone is replaced; the JSON text tells NaN and the 401-digit integer apart
        got = json.loads(files[f"family entry: {name}"])
        assert json.dumps(got.pop("family")) == json.dumps([want["family"][0], entry])
        assert got == {k: v for k, v in want.items() if k != "family"}
        assert files[f"family entry: {name}"].endswith("}\n")


def test_a_moved_refusal_changes_the_refusal_digest(monkeypatch):
    base = digest.refusal_digest()[0]
    bootstrap_ci, reconstruct = digest.bootstrap_ci, digest.reconstruct

    def exact_first(records, *args):  # negative shots refused as exact records, another message
        if any(type(rec.shots) is int and rec.shots < 0 for rec in records):
            raise ValueError("cannot bootstrap exact-probability records")
        return bootstrap_ci(records, *args)

    def another_type(records, *args):
        try:
            return reconstruct(records, *args)
        except ValueError as e:
            raise TypeError(str(e)) from None

    def takes_all(path, data):
        pass

    def names_the_sum(path):  # the first outcome over shots refused by its sum instead
        try:
            return read_counts(path)
        except ValueError as e:
            raise ValueError(re.sub("^count .* exceeds", "counts sum exceeds", str(e))) from None

    read_counts = digest.read_counts
    moves = (("bootstrap_ci", exact_first), ("reconstruct", another_type), ("write_counts", takes_all), ("read_counts", names_the_sum))
    for name, moved in moves:
        with monkeypatch.context() as patch:
            patch.setattr(digest, name, moved)
            assert digest.refusal_digest()[0] != base, name
    assert digest.refusal_digest()[0] == base


def test_every_bad_family_entry_and_the_huge_state_are_refused_as_value_errors():
    outcomes = digest.refusals()
    for name in digest.BAD_FAMILY_ENTRIES:
        assert outcomes[f"family entry: {name}", "read_counts"][0] == "ValueError", name
    assert outcomes["401-digit amplitude", "load_state"] == ("ValueError", "amplitude vector has non-finite entries")


def test_the_script_prints_the_refusal_digest_with_refusals(capsys):
    digest.main(["--refusals"])
    assert capsys.readouterr().out.split() == ["refusals", *map(str, digest.refusal_digest())]
