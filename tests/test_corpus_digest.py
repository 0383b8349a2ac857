"""The canonical corpus bytes are pinned: a change that alters any report,
theory or ordering in the default catalog must say so by updating this
digest."""

import hashlib
import io

from superchar.verifier import DEFAULT_CATALOG, run_corpus

DEFAULT_CORPUS_SHA256 = "0c41f4473f938f048a1f394755f702b3f99377745b32220db2b5c00cc9156eb2"


def test_default_corpus_digest():
    # the bytes `verify --format json` streams, group by group
    buf = io.BytesIO()
    run_corpus(DEFAULT_CATALOG, jobs=1, out=buf)
    assert hashlib.sha256(buf.getvalue()).hexdigest() == DEFAULT_CORPUS_SHA256


def test_default_corpus_digest_under_the_pool():
    # two workers send each group's pieces back; the parent writes them in order
    buf = io.BytesIO()
    run_corpus(DEFAULT_CATALOG, jobs=2, out=buf)
    assert hashlib.sha256(buf.getvalue()).hexdigest() == DEFAULT_CORPUS_SHA256
