import ast
import configparser
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trajlm"
CONFIGS = SRC.parents[1] / "configs"
BENCH = SRC.parents[1] / "bench"


def _uses(tree: ast.Module, module: str):
    """Yield (top-level statement index, defining module, name) for each name the module reads.

    A bare name counts for its own module and for a module it is imported from
    (`from .grid import to_cell`); `dataio.write_csv` counts for `dataio`.
    Only loads count: import statements, assignments and annotated fields
    (`perplexity: float`) are not uses.
    """
    origin = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                origin[alias.asname or alias.name] = (node.module, alias.name)
    for i, node in enumerate(tree.body):
        for sub in ast.walk(node):
            if not isinstance(getattr(sub, "ctx", None), ast.Load):
                continue
            if isinstance(sub, ast.Name):
                yield (i, *origin.get(sub.id, (module, sub.id)))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                yield i, sub.value.id, sub.attr


def test_config_schema_matches_reads():
    """RunConfig.KEYS is exactly the set of literal (section, key) pairs that cli.py
    reads with .get(...): a read key missing from KEYS would reject every config that
    sets it, and a listed key nothing reads would be a knob that is silently ignored."""
    from trajlm.cli import RunConfig

    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    reads = {
        (node.args[0].value, node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and len(node.args) >= 2
        and all(isinstance(a, ast.Constant) and isinstance(a.value, str) for a in node.args[:2])
    }
    assert reads
    assert reads == {(section, key) for section, keys in RunConfig.KEYS.items() for key in keys}


def test_config_schema_is_the_shipped_presets():
    """RunConfig.KEYS is exactly the keys that configs/pol.ini and configs/porto.ini
    set between them: the code holds no run value of its own, so every key is
    required, and a key no preset sets would be a value no run uses."""
    from trajlm.cli import RunConfig

    shipped = set()
    for name in ("pol.ini", "porto.ini"):
        parser = configparser.ConfigParser()
        parser.read(CONFIGS / name, encoding="utf-8")
        shipped |= {(section, key) for section in parser.sections() for key in parser[section]}
    assert shipped == {(section, key) for section, keys in RunConfig.KEYS.items() for key in keys}


# Public methods that a library calls, so that no attribute read in src/ names them.
LIBRARY_CALLS = {"cli._Parser.error": "argparse calls it on a usage error"}


def test_every_public_function_has_a_caller():
    """Every module-level public def/class is read somewhere in src/ or bench/ outside
    its own definition; re-exports in __init__.py do not count. The benchmark is a
    caller: its stream check scores with scoring.surprisal. Every public method or
    property of a src/ class is read as an attribute there; the attribute is matched
    by name alone (`x.push` counts for any push), save for the LIBRARY_CALLS."""
    defined, methods = [], []
    used = defaultdict(set)
    attributes_read = set()
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        module = path.stem if path.parent == SRC else f"bench.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for i, node in enumerate(tree.body):
            if path.parent == SRC and isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((module, node.name, i))
            if path.parent == SRC and isinstance(node, ast.ClassDef):
                methods += [(f"{module}.{node.name}.{f.name}", f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
        if module != "__init__":
            for i, owner, name in _uses(tree, module):
                used[owner, name].add((module, i))
            attributes_read |= {sub.attr for sub in ast.walk(tree)
                                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    assert defined and methods
    uncalled = [f"{module}.{name}" for module, name, i in defined if not used[module, name] - {(module, i)}]
    uncalled += [qualname for qualname, name in methods if name not in attributes_read and qualname not in LIBRARY_CALLS]
    assert uncalled == []


def test_only_encode_record_frames_a_record():
    """Outside vocab.py, which defines them, vocab.encode, SOT and SOT_ID are used
    in src/ only by dataio.encode_record: a record's head (its agent and weekday,
    or SOT) and its EOT are chosen in that one place."""
    users = set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for i, owner, name in _uses(tree, module):
            if owner == "vocab" and name in ("encode", "SOT", "SOT_ID") and module != "vocab":
                users.add(f"{module}.{getattr(tree.body[i], 'name', i)}")
    assert users == {"dataio.encode_record"}


def test_only_dataio_parses_token_text():
    """Outside vocab.py, which defines it, only dataio calls Token.parse: the rule of
    which tokens a corpus record or a stream may hold lives in that one module."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "parse"
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "Token"):
                callers.add(path.stem)
    assert callers - {"vocab"} == {"dataio"}


def test_only_online_calls_forward_batch_with_a_cache():
    """Outside model.py, which defines it, only online passes forward_batch a kv cache,
    by keyword or as its fourth argument: the session pool is the one owner of the
    cached form."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "forward_batch"
                    and (len(node.args) > 3 or any(k.arg == "kv" for k in node.keywords))):
                callers.add(path.stem)
    assert callers - {"model"} == {"online"}


def _calls_by_function(node, scope=()):
    """Yield (dotted name of the enclosing def or class, called name) for each call under node."""
    for child in ast.iter_child_nodes(node):
        inner = (*scope, child.name) if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            yield ".".join(inner), name
        yield from _calls_by_function(child, inner)


def test_cli_opens_only_its_config():
    """cli.py reads and writes every file through dataio, vocab or checkpoint: it calls
    no open, read_text or write_text except where RunConfig.from_path reads the config."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    openers = {scope for scope, name in _calls_by_function(tree) if name in ("open", "read_text", "write_text")}
    assert openers == {"RunConfig.from_path"}
