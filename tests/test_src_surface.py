"""No definition in `src/ppcat` that the command line cannot reach, unless
it is allowlisted with a reason.

The scan is by name, over the AST of every module of the package:

- The definitions are the module-level functions and classes and the
  methods of those classes, named `module.function`, `module.Class` and
  `module.Class.method`.
- The roots are the names `run` and `main` (`cli.run`, `cli.main`) and
  every module-level statement that runs on import, other than a
  definition, an import or an assignment to plain names.
- A reached body names every identifier it mentions as a variable or an
  attribute, and every string constant that is an identifier (so tables
  of handler names, read through `getattr`, count).  An import alias stands
  for the name it imports.
- A name reaches every definition of that name, in any module, and the
  module-level assignments to it.  A reached class reaches its bases,
  decorators and class attributes, and its dunder methods.

Matching by name may take dead code for live when the two share a name,
never the other way round.  What only the tests use belongs in `tests/`
(as `algebra_oracle`, `linalg_oracle` and `fixtures` hold it); what nothing
uses is deleted; what an open ROADMAP item needs stays, listed below.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ppcat"

ALLOWED = {
    "rep.kernel_of": "ROADMAP item 2: the reflection functors build M'_k as a kernel",
    "rep.dual_module": "ROADMAP items 9 and 13: Auslander's test and elementary duality "
                       "through the tensor product",
    "interp.apply_morphism": "ROADMAP item 10: the interpretation functor on morphisms, "
                             "the paper's content, worth a CLI route",
    "funcat.pp_functor_crosscheck": "ROADMAP item 10: pp-pairs against functors, until the "
                                    "equivalence is in code",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def mentioned(nodes):
    """The identifiers that the nodes mention, imported names included."""
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield n.id
            elif isinstance(n, ast.Attribute):
                yield n.attr
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                    and n.value.isidentifier():
                yield n.value
            elif isinstance(n, (ast.Import, ast.ImportFrom)):
                for alias in n.names:
                    yield alias.name.split(".")[-1]


def unreached(package=PACKAGE):
    """{qualified name: line count} of the definitions the scan does not reach."""
    defs = {}      # qualified name -> node
    by_name = {}   # name -> qualified names
    bindings = {}  # module-level assigned name -> assignment nodes
    aliases = {}   # import alias -> imported name
    roots = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text("utf-8")).body:
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                members = [(path.stem + "." + node.name, node)]
                if isinstance(node, ast.ClassDef):
                    members += [("%s.%s.%s" % (path.stem, node.name, sub.name), sub)
                                for sub in node.body if isinstance(sub, FUNCTIONS)]
                for qualified, member in members:
                    defs[qualified] = member
                    by_name.setdefault(member.name, []).append(qualified)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name.split(".")[-1]
            elif isinstance(node, ast.Assign) and all(isinstance(t, ast.Name)
                                                     for t in node.targets):
                for t in node.targets:
                    bindings.setdefault(t.id, []).append(node)
            else:
                roots.append(node)
    todo = ["run", "main"] + list(mentioned(roots))
    seen, reached = set(), set()
    while todo:
        name = todo.pop()
        name = aliases.get(name, name)
        if name in seen:
            continue
        seen.add(name)
        todo.extend(mentioned(bindings.get(name, ())))
        for qualified in by_name.get(name, ()):
            reached.add(qualified)
            node = defs[qualified]
            if isinstance(node, ast.ClassDef):
                todo.extend(mentioned(node.bases + node.decorator_list + node.keywords +
                                      [s for s in node.body if not isinstance(s, FUNCTIONS)]))
                todo.extend(s.name for s in node.body if isinstance(s, FUNCTIONS)
                            and s.name.startswith("__") and s.name.endswith("__"))
            else:
                todo.extend(mentioned([node]))
    return {q: node.end_lineno - node.lineno + 1 for q, node in defs.items() if q not in reached}


def test_every_unreached_definition_is_allowlisted():
    found = unreached()
    extra = sorted(set(found) - set(ALLOWED))
    stale = sorted(set(ALLOWED) - set(found))
    assert not extra, "unreached from the CLI, not allowlisted: %s" % ", ".join(
        "%s (%d lines)" % (q, found[q]) for q in extra)
    assert not stale, "allowlisted but reached or gone: %s" % ", ".join(stale)


def test_the_scan_follows_dispatch_tables_and_dunders():
    found = unreached()
    # reached through the string table `Parser.DECLARATIONS` and `getattr`
    assert "dsl.Parser.quiver_decl" not in found
    # a dunder of a reached class, never named in a call
    assert "linalg.Subspace.__post_init__" not in found
    assert "funcat.auslander_algebra" not in found
