"""The protocol/backend registries and system composition.

Covers the composition layer's contract: registry contents and order,
the systems as every Tempest backend times every protocol, alias
resolution, registry-derived error suggestions, cost-domain resolution,
the TempestPort structural check on every backend — and the layering
lints: the import ban that keeps every module under ``repro.protocols``
backend-neutral, and the wait rule that keeps library code blocking
through ``Tempest.wait``.
"""

import ast
import pathlib

import pytest

import repro.protocols as protocols_pkg
import repro.tempest as tempest_pkg
from repro.backends import (
    ALIASES,
    BACKENDS,
    CompositionError,
    all_systems,
    canonical_name,
    compose,
    parse_system,
    spec_name_for,
)
from repro.protocols.conformance import SPECS
from repro.protocols.registry import (
    PROTOCOLS,
    protocol_entry,
    protocol_names,
)
from repro.sim.config import MachineConfig
from repro.tempest.port import CostDomain, TempestPort


def _config(nodes=2, cache=1024, seed=3):
    return MachineConfig(nodes=nodes, seed=seed).with_cache_size(cache)


# ----------------------------------------------------------------------
# Registry contents
# ----------------------------------------------------------------------
def test_protocol_registry_contents_and_order():
    assert protocol_names() == ("stache", "migratory", "ivy", "em3d-update")
    for entry in PROTOCOLS.values():
        assert callable(entry.factory)


def test_every_protocol_factory_names_a_conformance_spec():
    for entry in PROTOCOLS.values():
        assert entry.factory().name in SPECS, entry.name


def test_backend_registry_contents():
    assert tuple(BACKENDS) == ("dirnnb", "typhoon", "decoupled", "blizzard")
    assert BACKENDS["dirnnb"].builtin_protocol == "dirnnb"
    for name in ("typhoon", "decoupled", "blizzard"):
        assert BACKENDS[name].builtin_protocol is None


def test_all_systems_is_the_valid_matrix():
    assert all_systems() == (
        "dirnnb",
        "typhoon:stache", "typhoon:migratory", "typhoon:ivy",
        "typhoon:em3d-update",
        "decoupled:stache", "decoupled:migratory", "decoupled:ivy",
        "decoupled:em3d-update",
        "blizzard:stache", "blizzard:migratory", "blizzard:ivy",
        "blizzard:em3d-update",
    )


def test_all_systems_is_dirnnb_then_every_backend_protocol_pair():
    tempest_backends = [b for b in BACKENDS if b != "dirnnb"]
    assert all_systems() == ("dirnnb",) + tuple(
        f"{backend}:{protocol}"
        for backend in tempest_backends for protocol in PROTOCOLS)


def test_every_alias_resolves_to_a_valid_system():
    for alias, canonical in ALIASES.items():
        assert canonical_name(alias) == canonical
        assert canonical in all_systems()
        backend, protocol = parse_system(alias)
        assert backend.name == canonical.split(":")[0]
        assert protocol.name == canonical.split(":")[1]


def test_legacy_system_names_still_compose():
    for alias in ("typhoon-stache", "typhoon-update", "blizzard-stache"):
        machine, protocol = compose(alias, _config())
        assert protocol is not None
        assert isinstance(machine, TempestPort)


def test_unknown_protocol_lookup_names_the_choices():
    with pytest.raises(ValueError, match="stache, migratory, ivy"):
        protocol_entry("flash")


# ----------------------------------------------------------------------
# Composition validation
# ----------------------------------------------------------------------
def test_unknown_system_error_suggests_the_registry():
    for bad in ("flash", "typhoon:flash", "flash:stache"):
        with pytest.raises(ValueError) as excinfo:
            parse_system(bad)
        message = str(excinfo.value)
        assert "typhoon:stache" in message
        assert "blizzard:ivy" in message
        assert "typhoon-stache" in message  # aliases listed too
        assert not isinstance(excinfo.value, CompositionError)


def test_blizzard_em3d_update_composes():
    backend, protocol = parse_system("blizzard:em3d-update")
    assert (backend.name, protocol.name) == ("blizzard", "em3d-update")
    machine, installed = compose("blizzard:em3d-update", _config())
    assert machine.protocol is installed
    assert spec_name_for(machine) == "em3d-update"


def test_builtin_protocol_backend_takes_no_protocol():
    with pytest.raises(CompositionError, match="hardware"):
        parse_system("dirnnb:stache")


def test_bare_protocol_needing_backend_is_rejected():
    with pytest.raises(CompositionError, match="needs a protocol"):
        parse_system("typhoon")


def test_compose_builds_every_registered_system():
    for system in all_systems():
        machine, protocol = compose(system, _config())
        if system == "dirnnb":
            assert protocol is None
            assert machine.costs is None
        else:
            assert machine.protocol is protocol
            assert isinstance(machine, TempestPort)
        assert spec_name_for(machine) in SPECS, system


def test_spec_name_for_dirnnb_comes_from_the_backend_registry():
    machine, _ = compose("dirnnb", _config())
    assert spec_name_for(machine) == "dirnnb"


# ----------------------------------------------------------------------
# Cost domains
# ----------------------------------------------------------------------
def test_cost_domains_resolve_from_each_backend_config():
    config = _config()
    typhoon, _ = compose("typhoon:stache", config)
    decoupled, _ = compose("decoupled:stache", config)
    blizzard, _ = compose("blizzard:stache", config)
    assert typhoon.costs.domain == "typhoon"
    assert decoupled.costs.domain == "decoupled"
    assert blizzard.costs.domain == "blizzard"
    assert (typhoon.costs.miss_request
            == config.typhoon.miss_request_instructions)
    assert (decoupled.costs.miss_request
            == config.decoupled.miss_request_instructions)
    assert (blizzard.costs.miss_request
            == config.blizzard.miss_request_instructions)
    # The software backends run the same protocol library on commodity
    # CPUs: their path lengths agree with each other, and every one of
    # them carries a software surcharge over the Typhoon count (the
    # BlizzardCosts de-mirror; block_copy is a bus property and stays).
    for name in CostDomain.names():
        assert decoupled.costs.get(name) == blizzard.costs.get(name), name
        if name == "block_copy":
            assert typhoon.costs.get(name) == blizzard.costs.get(name)
        else:
            assert typhoon.costs.get(name) < blizzard.costs.get(name), name


def test_cost_domain_rejects_unknown_names():
    costs = CostDomain.from_section("typhoon", MachineConfig().typhoon)
    with pytest.raises(KeyError):
        costs.get("np_clock_multiplier")
    with pytest.raises(KeyError):
        costs["domain"]


def test_every_tempest_backend_satisfies_tempest_port():
    for system in ("typhoon:stache", "decoupled:stache", "blizzard:stache"):
        machine, _ = compose(system, _config())
        assert isinstance(machine, TempestPort)
        assert machine.num_nodes == 2
        assert isinstance(machine.costs, CostDomain)


# ----------------------------------------------------------------------
# The import ban: protocols never touch backend modules
# ----------------------------------------------------------------------
BANNED_PREFIXES = ("repro.typhoon", "repro.decoupled", "repro.blizzard")


def _imported_modules(path: pathlib.Path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_protocol_module_imports_a_backend():
    """Backend neutrality, enforced: the whole ``repro.protocols``
    package — including lazy function-level imports — never names
    ``repro.typhoon``, ``repro.decoupled``, or ``repro.blizzard``."""
    package_dir = pathlib.Path(protocols_pkg.__file__).parent
    sources = sorted(package_dir.glob("*.py"))
    assert len(sources) >= 8  # the package did not move out from under us
    for source in sources:
        for module in _imported_modules(source):
            for banned in BANNED_PREFIXES:
                assert not module.startswith(banned), (
                    f"{source.name} imports {module}"
                )


# ----------------------------------------------------------------------
# The wait rule: library code blocks only through Tempest.wait
# ----------------------------------------------------------------------
#: Calls whose result is a completion the caller must wait on.
_COMPLETIONS = ("Future", "bulk_transfer")


def _is_completion(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(
        func, "attr", None)
    return name in _COMPLETIONS


def _bare_completion_yields(path: pathlib.Path):
    """``(function, line)`` of every ``yield`` of a completion: a
    ``Future(...)`` or ``bulk_transfer(...)`` call, or a name or
    attribute the function bound from one."""
    tree = ast.parse(path.read_text())
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and _is_completion(node.value):
                bound.update(ast.unparse(target) for target in node.targets)
            elif (isinstance(node, ast.AnnAssign)
                    and _is_completion(node.value)):
                bound.add(ast.unparse(node.target))
        for node in ast.walk(function):
            if not isinstance(node, ast.Yield) or node.value is None:
                continue
            value = node.value
            if _is_completion(value) or (
                    isinstance(value, (ast.Name, ast.Attribute))
                    and ast.unparse(value) in bound):
                yield function.name, node.lineno


def test_library_code_waits_through_tempest_wait():
    """A protocol or sync library that yields its own future blocks the
    CPU bare: on a backend whose CPU runs the handlers (Blizzard) the
    reply's handler then never runs.  Library code waits through
    ``Tempest.wait`` instead.  DirNNB is exempt: its CPU model is the
    hardware's, not a library on a Tempest backend."""
    package_dir = pathlib.Path(protocols_pkg.__file__).parent
    tempest_dir = pathlib.Path(tempest_pkg.__file__).parent
    sources = [source for source in sorted(package_dir.glob("*.py"))
               if source.name != "dirnnb.py"]
    sources += [tempest_dir / "sync.py", tempest_dir / "swbarrier.py"]
    offenders = [
        f"{source.name}:{line} {function}"
        for source in sources
        for function, line in _bare_completion_yields(source)
    ]
    assert offenders == []
