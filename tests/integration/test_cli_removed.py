"""CLI integration: removed flags and methods fail with a pointer.

``--workers``, ``--block-bits``, ``--shard`` and ``--method
naive-parallel`` selected array builders that never beat the serial
build; ``--incremental`` / ``--no-incremental`` toggled flow repair,
which the solver now decides; ``repro serve --coalesce-window`` held
every round open for a fixed wait, where the daemon now answers what
is ready at once.  Each exits 2 with one line naming the removal, its
reason and its docs section, instead of argparse's bare "unrecognized
arguments" — and before the network file is even opened.
"""

import pytest

from repro.cli import main

_DEMAND = ["-s", "s", "-t", "t", "-d", "2"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["compute", "net.json", *_DEMAND, "--workers", "2"], "--workers"),
        (["profile", "net.json", *_DEMAND, "--workers=2"], "--workers"),
        (["compute", "net.json", *_DEMAND, "--block-bits", "6"], "--block-bits"),
        (
            ["sweep", "net.json", *_DEMAND, "--availability", "0.9", "--shard", "2"],
            "--shard",
        ),
        (
            ["compute", "net.json", *_DEMAND, "--method", "naive-parallel"],
            "--method naive-parallel",
        ),
        (
            ["profile", "net.json", *_DEMAND, "--method=naive-parallel"],
            "--method naive-parallel",
        ),
    ],
)
def test_removed_surface_exits_2_with_pointer(argv, named, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert f"{named} was removed" in lines[0]
    assert 'docs/PERFORMANCE.md "Removed build paths"' in lines[0]


@pytest.mark.parametrize("flag", ["--incremental", "--no-incremental"])
@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "net.json", *_DEMAND, "--method", "naive"],
        ["estimate", "net.json", *_DEMAND, "--seed", "0"],
        ["profile", "net.json", *_DEMAND],
        ["sweep", "net.json", *_DEMAND, "--availability", "0.9"],
    ],
    ids=["compute", "estimate", "profile", "sweep"],
)
def test_repair_toggle_exits_2_with_pointer(argv, flag, capsys):
    assert main([*argv, flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert f"{flag} was removed: the solver decides flow repair" in lines[0]
    assert 'docs/PERFORMANCE.md "Incremental repair"' in lines[0]
    assert "never beat the serial path" not in lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--port", "0", "--coalesce-window", "0.005"],
        ["serve", "--coalesce-window=0"],
    ],
)
def test_coalesce_window_exits_2_with_pointer(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert "--coalesce-window was removed" in lines[0]
    assert 'docs/SERVING.md "Coalescing"' in lines[0]
