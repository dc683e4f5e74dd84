"""`ettmt fetch` on local fixture archives served over file:// URLs."""

import io
import tarfile

import pytest

from ettmt.cli import cli_dispatch
from ettmt.fetch import fetch_dataset


def write_archive(path, members):
    """A gzip tar archive holding each (name, bytes) member as a regular file."""
    with tarfile.open(path, "w:gz") as tar:
        for name, data in members:
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    return path


def test_extracts_and_then_reuses_the_cache(tmp_path):
    archive = write_archive(tmp_path / "repo.tar.gz", [("repo/data/corpus.tsv", b"id\n")])
    dest = tmp_path / "cache"
    root = fetch_dataset(dest=dest, url=archive.as_uri())
    assert root == dest / "extracted"
    assert (root / "repo" / "data" / "corpus.tsv").read_bytes() == b"id\n"
    assert sorted(p.name for p in dest.iterdir()) == ["dataset.tar.gz", "extracted"]
    # both are cached: a second call neither downloads nor extracts
    assert fetch_dataset(dest=dest, url=(tmp_path / "absent.tar.gz").as_uri()) == root


def test_extraction_left_half_done_is_redone(tmp_path):
    archive = write_archive(tmp_path / "repo.tar.gz", [("repo/a.txt", b"a")])
    dest = tmp_path / "cache"
    fetch_dataset(dest=dest, url=archive.as_uri())
    (dest / "extracted" / "repo" / "a.txt").unlink()
    (dest / "extracted" / "repo").rmdir()
    (dest / "extracted").rmdir()
    assert (fetch_dataset(dest=dest, url="file:///absent") / "repo" / "a.txt").read_bytes() == b"a"


def _truncated(tmp_path):
    full = write_archive(tmp_path / "full.tar.gz", [("repo/big.bin", bytes(range(256)) * 400)])
    path = tmp_path / "truncated.tar.gz"
    path.write_bytes(full.read_bytes()[:200])
    return path


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda tmp: write_archive(tmp / "evil.tar.gz", [("repo/ok.txt", b"ok"), ("../../evil.txt", b"x")]),
         "not a usable dataset archive"),
        (_truncated, "not a usable dataset archive"),
        (lambda tmp: tmp / "absent.tar.gz", "No such file"),
    ],
    ids=["parent-member", "truncated", "missing"],
)
def test_bad_download_leaves_nothing_behind(tmp_path, capsys, make, message):
    url = make(tmp_path).as_uri()
    dest = tmp_path / "a" / "cache"
    before = set(tmp_path.rglob("*"))
    assert cli_dispatch(["fetch", "--dest", str(dest), "--url", url]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1 and message in captured.err
    assert list(dest.iterdir()) == []
    assert set(tmp_path.rglob("*")) == before | {tmp_path / "a", dest}
