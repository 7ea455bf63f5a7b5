"""The package keeps no code without a caller.

Every top-level function and class in src/nomafb must be used by some other
code in src/nomafb; tests alone do not count. The entry points below are the
only exceptions.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import nomafb
from nomafb.channel import CHUNK, sample_block

# Called from outside the package only.
ENTRY_POINTS = {
    ("cli", "main"),  # the nomafb console script
    ("cli", "render_args"),  # canonical argv, recorded by bench/run.py
    ("harness", "run_experiment"),  # the library entry point
    ("quantizer", "vle_encode"),  # the VLE codec defines the code vle_lengths counts
    ("quantizer", "vle_decode"),
}


def test_every_top_level_definition_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(nomafb.__file__).parent.glob("*.py")}
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = {id(n) for n in ast.walk(node)}
            used = any(
                (isinstance(n, ast.Name) and n.id == node.name
                 or isinstance(n, ast.Attribute) and n.attr == node.name)
                and id(n) not in own
                for t in trees.values() for n in ast.walk(t))
            if not used and (module, node.name) not in ENTRY_POINTS:
                uncalled.append("%s.%s" % (module, node.name))
    assert uncalled == []


def test_drivers_leave_config_rules_to_the_config():
    # ExperimentConfig holds every rule a config must keep, so a bad config
    # fails before any work starts. A driver raises nothing itself, and the
    # sweep loop raises only when handed a config of another kind.
    tree = ast.parse((Path(nomafb.__file__).parent / "harness.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    drivers = [name for name in funcs if name.startswith("run_")]
    assert "run_min_rate" in drivers and "run_k_user" in drivers
    for name in drivers:
        raises = [n for n in ast.walk(funcs[name]) if isinstance(n, ast.Raise)]
        assert raises == [], "%s raises at line %d" % (name, raises[0].lineno)
    guards = [ast.unparse(n.test) for n in ast.walk(funcs["_sweep"])
              if isinstance(n, ast.If) and any(isinstance(b, ast.Raise) for b in n.body)]
    raises = [n for n in ast.walk(funcs["_sweep"]) if isinstance(n, ast.Raise)]
    assert guards == ["cfg.kind != kind"] and len(raises) == 1


def test_only_the_config_resolves_sweep_points():
    # ExperimentConfig.points turns each p_db into a linear power and picks
    # each point's bins, and __post_init__ checks them all before any work. A
    # driver that did either itself could run a point the config never saw.
    trees = [ast.parse(path.read_text()) for path in Path(nomafb.__file__).parent.glob("*.py")]
    config = next(node for tree in trees for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig")
    inside = {id(n) for n in ast.walk(config)}

    def resolves(n):
        # a policy_delta call, or 10 ** x: the dB conversion
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "policy_delta"
                or isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                and isinstance(n.left, ast.Constant) and n.left.value == 10)

    found = [n for tree in trees for n in ast.walk(tree) if resolves(n)]
    assert len([n for n in found if id(n) in inside]) == 2
    assert [ast.unparse(n) for n in found if id(n) not in inside] == []
    # Each point's bins carry their level counts, from the mean gain the
    # config picks for each receiver; a driver that counted them itself
    # could pick another mean.
    for name in ("default_t_rate", "default_t_outage"):
        assert _call_sites(name) == ["harness.ExperimentConfig._bin"], name


def test_hot_two_user_kernels_make_no_select():
    # The outage test and the level quantizers run on every chunk, as do the
    # outage mask factory and its floored gather on every chunk of every
    # outage scan. A per-element np.where there costs more than the
    # arithmetic around it, so they pick by np.maximum and np.minimum,
    # boolean & and |, or by adding a mask; a select brought back would slow
    # every scan without a trace.
    root = Path(nomafb.__file__).parent
    for module, name in (("alloc", "outage_conditions"), ("quantizer", "_lower_edge"),
                         ("quantizer", "rate_levels"),
                         ("quantizer", "outage_levels"), ("harness", "_pair_lookup"),
                         ("harness", "_order_keys"), ("harness", "_quantized_outage"),
                         ("harness", "_floored"), ("harness", "_outage_masks")):
        tree = ast.parse((root / ("%s.py" % module)).read_text())
        func = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        selects = [ast.unparse(n) for n in ast.walk(func) if isinstance(n, ast.Call)
                   and (isinstance(n.func, ast.Attribute) and n.func.attr == "where"
                        or isinstance(n.func, ast.Name) and n.func.id == "where")]
        assert selects == [], "%s.%s: %s" % (module, name, selects)


def _call_sites(name):
    """module.function[.inner] of every call to `name` in src/nomafb."""
    callers = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                callers.append(where)
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, "%s.%s" % (where, child.name) if named else where)

    for path in Path(nomafb.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return callers


def test_one_upper_edge_outage_path():
    # Both quantizers order the receivers by their fed-back gains and split
    # power by the same closed form; only the bin edge differs. The outage
    # kinds all take their outage masks from one factory, _outage_masks. Its
    # masks run the full-CSI test and _quantized_outage, which splits each
    # row by alloc._served_split, the core equal_rate_split runs after its
    # checks. The split is formed only there and in the lower edge's lookup,
    # so no second copy can pick the strong and weak gains some other way.
    # The two-user role mask and kuser's fed-back order both order levels by
    # _order_keys, so one rule decides where the levels stop ordering as
    # their floats do.
    assert _call_sites("outage_conditions") == ["harness._quantized_outage"]
    assert sorted(_call_sites("_order_keys")) == ["harness._fed_back_order",
                                                  "harness._quantized_outage"]
    assert _call_sites("equal_rate_split") == ["harness._min_rate_lookup.min_rate"]
    assert sorted(_call_sites("_served_split")) == ["alloc.equal_rate_split",
                                                    "harness._quantized_outage"]
    assert _call_sites("_quantized_outage") == ["harness._outage_masks.masks"]
    assert _call_sites("_full_csi_outage") == ["harness._outage_masks.masks"]
    assert sorted(_call_sites("_outage_masks")) == [
        "harness.run_diversity.kernel_at", "harness.run_outage.kernel_at",
        "harness.run_outage_loss.kernel_at"]


def test_only_the_upper_edge_kernels_floor_their_outage_tests():
    # alloc.outage_floor certifies rows in no outage for one test: the
    # full-CSI test, or the upper-edge quantized test of one bin. The outage
    # mask factory takes the floors of a point, one call for the full-CSI
    # test and one for its bins; a floor taken elsewhere could skip the rows of a test it was not derived for. Its
    # tests gather the rows below a floor in _floored alone, so every floored
    # test picks, gathers and scatters its rows one way.
    assert _call_sites("outage_floor") == ["harness._outage_masks"] * 2
    assert [site for site in _call_sites("flatnonzero")
            if site.startswith("harness.")] == ["harness._floored"]


def test_one_lower_edge_min_rate_path():
    # minrate and rateloss read the min adapted rate of each row's level
    # pair from its _min_rate_lookup. One builder, _pair_lookup, makes that
    # lookup: it alone picks a table or a per-row fn and forms the key, by
    # the budget rule _table_pays, which _vle_lookup shares. So no driver,
    # no outage helper and not the sweep loop handles a table.
    assert sorted(_call_sites("two_user_rates")) == ["harness._min_rate_lookup.min_rate"]
    assert sorted(_call_sites("_min_rate_lookup")) == ["harness.run_min_rate.kernel_at",
                                                       "harness.run_rate_loss.scans"]
    assert _call_sites("_pair_lookup") == ["harness._min_rate_lookup"]
    assert sorted(_call_sites("_table_pays")) == ["harness._pair_lookup",
                                                  "harness._vle_lookup"]
    tree = ast.parse((Path(nomafb.__file__).parent / "harness.py").read_text())
    for func in tree.body:
        if isinstance(func, ast.FunctionDef) and (func.name.startswith("run_") or func.name in (
                "_quantized_outage", "_outage_masks", "_sweep")):
            names = {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
            assert not {name for name in names if "table" in name}, func.name


def test_only_the_scan_samples_blocks():
    # _scan is the one path that turns chunk indices into blocks of gains:
    # its draws stack their chunks, and its steps slice each chunk's metrics
    # back out. A second caller could draw or stack blocks some other way.
    assert set(_call_sites("sample_block")) == {"harness._scan.draw"}


def test_one_exact_reduction_path():
    # A scan's step turns each chunk of a metric into exact int moments, and
    # the scan adds them as they come. A second caller could reduce a metric
    # with other rounding, and an fsum brought back would need the per-chunk
    # sums kept until the end, a scan's memory growing with its trial count.
    assert _call_sites("_moments") == ["harness._scan.step"]
    tree = ast.parse((Path(nomafb.__file__).parent / "harness.py").read_text())
    assert [ast.unparse(n) for n in ast.walk(tree)
            if "fsum" in (getattr(n, "id", None), getattr(n, "attr", None))] == []


def test_sample_block_keeps_the_traced_signature():
    # bench/layertrace.py wraps sample_block and unpacks its arguments by
    # name into (params, master, block_index, count); a parameter added,
    # renamed or made keyword-only breaks every traced benchmark run.
    sig = inspect.signature(sample_block)
    assert [(p.name, p.kind) for p in sig.parameters.values()] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        for name in ("params", "master", "block_index", "count")]
    assert sig.parameters["count"].default == CHUNK
    trace = Path(nomafb.__file__).resolve().parents[2] / "bench" / "layertrace.py"
    if trace.is_file():
        info = next(node for node in ast.parse(trace.read_text()).body
                    if isinstance(node, ast.FunctionDef) and node.name == "_sample_info")
        assert [a.arg for a in info.args.args] == ["result"] + list(sig.parameters)


def test_the_exact_varpi_runs_only_as_the_solver_fallback():
    # _varpi_rows defines the K-user bits but is written for clarity, not
    # speed: batch_max_min_rate calls it only on rows near the root. A call
    # from anywhere else would put the slow form on the hot path.
    assert _call_sites("_varpi_rows") == ["alloc.batch_max_min_rate"]


def test_one_power_rule_in_alloc():
    # The paper's splits are defined for a finite P > 0, and alloc._check_power
    # is the one place that says so. A function that compared p itself, or
    # skipped the check, would let inf or NaN through where its neighbours
    # refuse them, or refuse with other words.
    tree = ast.parse((Path(nomafb.__file__).parent / "alloc.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name, func in funcs.items():
        compared = [ast.unparse(n) for n in ast.walk(func) if isinstance(n, ast.Compare)
                    and any(isinstance(m, ast.Name) and m.id == "p" for m in ast.walk(n))]
        assert compared == [] or name == "_check_power", "%s: %s" % (name, compared)

    def calls(func):
        return {n.func.id for n in ast.walk(func)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}

    public = {name: func for name, func in funcs.items() if not name.startswith("_")
              and "p" in [a.arg for a in func.args.args]}
    assert len(public) == 9
    direct = {name for name, func in public.items() if "_check_power" in calls(func)}
    for name, func in public.items():
        # once per call: directly, or through one public function that checks
        through = calls(func) & direct
        assert (name in direct) != bool(through), (name, through)


def test_readme_names_resolve():
    # README names module attributes (`harness._pair_lookup`,
    # `alloc.sic_rates(...)`) and private helpers (`_sweep`) in backticks. A
    # rename that missed the README would leave it pointing at code that is
    # gone, so each must be an attribute of its nomafb module, or of some
    # nomafb module when bare.
    modules = {path.stem: importlib.import_module("nomafb." + path.stem)
               for path in Path(nomafb.__file__).parent.glob("*.py") if path.stem != "__init__"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    checked, missing = 0, []
    for span in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme, flags=re.S)):
        named = re.fullmatch(r"(?:(\w+)\.)?(\w+)(?:\(.*\))?", span, re.S)
        if named is None:
            continue
        module, name = named.groups()
        if module in modules:
            found = hasattr(modules[module], name)
        elif module is None and name.startswith("_"):
            found = any(hasattr(m, name) for m in modules.values())
        else:
            continue
        checked += 1
        if not found:
            missing.append(span)
    assert checked > 30 and missing == []


def test_readme_kinds_table_lists_each_kinds_options():
    # README's kinds table has an options column for what each kind takes
    # beyond harness.SHARED_OPTIONS. harness.EXPERIMENTS is the one place
    # that decides it, so the column must list exactly each entry's options.
    from nomafb.cli import OPTIONS
    from nomafb.harness import EXPERIMENTS

    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("| kind |"))

    def cells(line):
        return [c.strip() for c in line.strip().strip("|").split("|")]

    at = cells(lines[header]).index("options")
    listed = {}
    for line in lines[header + 2:]:
        if not line.startswith("|"):
            break
        row = cells(line)
        listed[row[0].strip("`")] = sorted(re.findall(r"`(--[\w-]+)`", row[at]))
    assert listed == {kind: sorted(OPTIONS[dest][0] for dest in exp.options)
                      for kind, exp in EXPERIMENTS.items()}


def test_one_heap_setting():
    # Every sweep sets glibc's malloc thresholds first, right after its kind
    # check and before a kernel factory builds a table or a block is drawn,
    # so the command line, library callers and the tests share one heap
    # configuration. The command line only parses, runs and renders.
    assert _call_sites("fix_malloc_thresholds") == ["harness._sweep"]
    tree = ast.parse((Path(nomafb.__file__).parent / "harness.py").read_text())
    sweep = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_sweep")
    kind_check, first = sweep.body[1:3]  # after the docstring
    assert isinstance(kind_check, ast.If) and ast.unparse(first) == "fix_malloc_thresholds()"
    text = (Path(nomafb.__file__).parent / "cli.py").read_text()
    assert [word for word in ("mallopt", "ctypes", "_MALLOC_") if word in text] == []
