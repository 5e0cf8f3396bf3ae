"""README holds the package's contract: its examples run, its library
tour names each public name in the row of the module that defines it,
in at most 600 characters a row, it names each type a public function
returns, and it names no private name."""

import inspect
import re
import shlex
import typing
from pathlib import Path

import pytest

import relayregions
from relayregions import cli, dmc, gaussian, model, optimize, rates

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
# fenced blocks as (language, body), in order
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
COMMANDS = [
    line for lang, body in BLOCKS if lang == "sh"
    for line in body.splitlines() if line.startswith("relayregions ")
]
# the library tour's rows, by module name
ROWS = {m.group(1): m.group(0) for m in re.finditer(r"^\| `(\w+)` \|.*$", README, re.M)}
# in dependency order, so the first module that holds a name defines it
MODULES = (model, rates, gaussian, optimize, dmc)


def test_python_examples_run_in_order_in_one_namespace():
    namespace: dict = {}
    sources = [body for lang, body in BLOCKS if lang == "python"]
    assert sources
    for source in sources:
        exec(compile(source, "README.md", "exec"), namespace)


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_examples_exit_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0
    assert not capsys.readouterr().err


def test_one_command_line_example_per_subcommand():
    assert [shlex.split(line)[1] for line in COMMANDS] == list(cli._COMMANDS)


@pytest.mark.parametrize("command,argv", [
    ("frontier", ["frontier", "--gamma-grid", "0,1"]),
    ("sweep-snr", ["sweep-snr", "--snr-db", "10"]),
])
def test_csv_schemas_are_the_commands_headers(command, argv, capsys):
    schema = re.search(rf"^{command}: +(\S+)$", README, re.M).group(1)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == schema


def test_library_tour_rows_are_short():
    assert set(ROWS) == {"model", "rates", "gaussian", "optimize", "dmc", "cli"}
    assert {name: len(row) for name, row in ROWS.items() if len(row) > 600} == {}


def test_library_tour_names_each_public_name_in_its_module_row():
    missing = {}
    for name in relayregions.__all__:
        if name == "__version__":
            continue
        module = next(m for m in MODULES if name in vars(m))
        row = ROWS[module.__name__.rpartition(".")[2]]
        if f"`{name}`" not in row and f"`{name}(" not in row:
            missing[name] = module.__name__
    assert missing == {}


def _classes(hint):
    """The classes a type hint names, inside ``tuple[...]`` and unions too."""
    if isinstance(hint, type) and not typing.get_args(hint):
        yield hint
    if isinstance(origin := typing.get_origin(hint), type):
        yield origin
    for arg in typing.get_args(hint):
        yield from _classes(arg)


def test_public_functions_return_types_readme_names():
    # the public-surface sentence names each returned type __all__ lacks
    sentence = re.search(r"The public surface is .*?\.(?=\s+[A-Z])", README, re.S).group(0)
    named = set(relayregions.__all__) | set(re.findall(r"`(\w+)`", sentence))
    unnamed = {}
    for name in relayregions.__all__:
        if inspect.isfunction(fn := getattr(relayregions, name)):
            returned = _classes(typing.get_type_hints(fn)["return"])
            unnamed |= {
                cls.__qualname__: name for cls in returned
                if cls.__module__ != "builtins" and cls.__qualname__ not in named
            }
    assert unnamed == {}


def test_public_surface_count_is_that_of_all():
    count = re.search(r"`relayregions\.__all__` \((\d+) names\)", README).group(1)
    assert int(count) == len(relayregions.__all__)


# a name that begins with one underscore, alone or after a dot
# (``module._name``); a dunder such as ``__dict__`` does not match
PRIVATE = re.compile(r"(?<!\w)_[A-Za-z0-9]\w*")


def test_private_pattern():
    assert PRIVATE.findall("`model._require_real` and _scaled") == ["_require_real", "_scaled"]
    assert PRIVATE.findall("`__dict__`, `relayregions.__all__`, `gamma_grid`, `spec.p_s`") == []


def test_readme_names_no_private_name():
    assert PRIVATE.findall(README) == []
