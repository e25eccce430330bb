"""Every argv of cli_corpus.txt keeps its exit code, stdout, stderr and files.

cli_corpus.sha256 holds one line `<digest>  <argv>` per corpus argv, the
SHA-256 of its exit code, stdout, stderr, any warning raised and every file
it wrote (a manifest without its timestamp), with cli.main run in a fresh
temporary directory.  The test runs every argv in one child interpreter
where numpy cannot be imported, and requires that numpy never loads there.
A line with --config or --bath-file runs beside a copy of cli_files/ as
files/ and reads files/<name>; those copies are not among the files it
wrote.  A change meant to move no CLI byte passes this test unchanged.  A
change that moves some rewrites the digests with

    PYTHONPATH=src python tests/test_cli_corpus.py

and lists the argv that moved, and why, in CHANGES.md.  The pins hold for
one platform's libm: exp and cos may round differently on another CPU, and
if they move there, re-pin them on the previous commit.
"""

import hashlib
import io
import json
import shlex
import shutil
import tempfile
import warnings
from contextlib import chdir, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

CORPUS = Path(__file__).with_name("cli_corpus.txt")
DIGESTS = Path(__file__).with_name("cli_corpus.sha256")
FILES = Path(__file__).with_name("cli_files")


def corpus() -> list[str]:
    """The argv lines of the corpus, without comments and blank lines."""
    lines = [line.strip() for line in CORPUS.read_text().splitlines()]
    return [line for line in lines if line and not line.startswith("#")]


def digests() -> dict[str, str]:
    """Each corpus line and its digest, as pinned."""
    pairs = (line.split("  ", 1) for line in DIGESTS.read_text().splitlines())
    return {argv: digest for digest, argv in pairs}


def written(root: Path) -> list[list[str]]:
    """[path, text] of each file under root but the files/ inputs, by path,
    a manifest's timestamp left out."""
    files = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()
                       and not p.is_relative_to(root / "files")):
        text = path.read_text()
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(text)
            del manifest["timestamp"]
            text = json.dumps(manifest, sort_keys=True)
        files.append([path.relative_to(root).as_posix(), text])
    return files


def outcomes(lines: list[str]) -> dict[str, str]:
    """Each line and the digest of its run.  Every run shares one parser,
    since building it is most of a closed-form call's time."""
    from bohmpart import cli
    parser, found = cli.build_parser(), {}
    for line in lines:
        argv, out, err = shlex.split(line), io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, chdir(tmp), \
                redirect_stdout(out), redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught, \
                mock.patch.object(cli, "build_parser", lambda: parser):
            warnings.simplefilter("always")
            if {"--config", "--bath-file"} & set(argv):
                shutil.copytree(FILES, Path(tmp) / "files")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
            files = written(Path(tmp))
        outcome = [code, out.getvalue(), err.getvalue(),
                   [f"{w.category.__name__}: {w.message}" for w in caught]]
        blob = json.dumps(outcome + [files] if files else outcome)
        found[line] = hashlib.sha256(blob.encode()).hexdigest()
    return found


def test_corpus_keeps_its_exit_codes_and_bytes(without_numpy):
    lines = corpus()
    assert len(set(lines)) == len(lines), "a corpus line appears twice"
    pinned = digests()
    assert list(pinned) == lines, "re-pin after editing cli_corpus.txt"
    found = without_numpy(f"""
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        from test_cli_corpus import corpus, outcomes
        result = outcomes(corpus())
        """)
    moved = [line for line in lines if found[line] != pinned[line]]
    assert not moved, f"{len(moved)} argv moved, the first: {moved[:5]}"


if __name__ == "__main__":
    DIGESTS.write_text("".join(f"{digest}  {line}\n" for line, digest in
                               outcomes(corpus()).items()))
