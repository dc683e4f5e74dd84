"""Download helper for the published Etruscan-English dataset.

Everything else in the package works offline on local files; this is the
one convenience that talks to the network. The archive of the public dataset
repository is downloaded into a cache directory (``ETTMT_DATA_DIR``, or
``~/.cache/ettmt``) and extracted there. Corpus files must still be
converted to the TSV/JSON layout this package reads; see the README.
"""

from __future__ import annotations

import gzip
import os
import shutil
import tarfile
import tempfile
import urllib.request
import zlib
from pathlib import Path

from .errors import DataError

DEFAULT_URL = "https://github.com/GianlucaVico/Larth-Etruscan-NLP/archive/refs/heads/main.tar.gz"
DATA_DIR_ENV = "ETTMT_DATA_DIR"
URL_ENV = "ETTMT_DATASET_URL"


def data_dir() -> Path:
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "ettmt"


def fetch_dataset(dest: str | os.PathLike | None = None, url: str | None = None) -> Path:
    """Download and extract the dataset archive; returns the extraction root.

    Skips the download when the archive is already in the cache.  The
    archive and ``extracted/`` appear only once complete: each is written
    under a temporary name in the cache directory and then renamed.  An
    archive that cannot be extracted, or whose members would land outside
    ``extracted/``, is deleted and raises DataError.
    """
    url = url or os.environ.get(URL_ENV) or DEFAULT_URL
    root = Path(dest) if dest else data_dir()
    root.mkdir(parents=True, exist_ok=True)
    archive = root / "dataset.tar.gz"
    if not archive.exists():
        with urllib.request.urlopen(url, timeout=60) as response:
            part = tempfile.NamedTemporaryFile(dir=root, suffix=".part", delete=False)
            try:
                with part:
                    shutil.copyfileobj(response, part, 1 << 20)
                os.replace(part.name, archive)
            except BaseException:
                os.unlink(part.name)
                raise
    extracted = root / "extracted"
    if not extracted.exists():
        staging = tempfile.mkdtemp(dir=root, suffix=".part")
        try:
            with tarfile.open(archive, "r:gz") as tar:
                tar.extractall(staging, filter="data")
            os.rename(staging, extracted)
        except (tarfile.TarError, EOFError, zlib.error, gzip.BadGzipFile) as exc:
            archive.unlink()
            raise DataError(f"{archive}: not a usable dataset archive ({exc})") from exc
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    return extracted
