"""Span tracer for the traced run of the coeffopt benchmark.

The tracer wraps coeffopt's public functions from outside the package.
``from .fem import solve_dirichlet`` binds a second reference in
``coeffopt.optimize``, so each target is patched in the module that
defines it, in every module expected to look it up by name, and in any
other coeffopt module found holding the same object.  A target the
tracer cannot find is reported as missing and every metric computed
from it is left out, so a refactor that moves a name reads as missing,
never as a drop to zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

# (span name, defining module, attribute, modules that import the
# attribute by name); "Class.method" patches the class, which every
# importer shares.
TARGETS = (
    ("mesh.build", "coeffopt.mesh", "build_unit_disk_mesh", ("coeffopt.cli",)),
    ("mesh.build", "coeffopt.mesh", "build_unit_square_mesh", ("coeffopt.cli",)),
    ("mesh.write_vtk", "coeffopt.mesh", "write_vtk", ("coeffopt.cli",)),
    ("fem.assemble", "coeffopt.fem", "StiffnessAssembler.assemble", ()),
    ("fem.load", "coeffopt.fem", "assemble_load", ("coeffopt.optimize",)),
    ("fem.solve", "coeffopt.fem", "solve_dirichlet", ("coeffopt.optimize",)),
    # scipy's cg as coeffopt.fem looks it up; the iteration count comes
    # from a callback that exists only while the tracer is installed
    ("fem.cg", "coeffopt.fem", "cg", ()),
    ("fem.gradient", "coeffopt.fem", "cell_gradient", ("coeffopt.optimize",)),
    ("fem.gradient", "coeffopt.fem", "grad_norm_sq", ("coeffopt.optimize",)),
    ("penalty", "coeffopt.penalty", "psi_eval", ()),
    ("penalty", "coeffopt.penalty", "psi_prime", ()),
    ("penalty", "coeffopt.penalty", "project_to_domain", ()),
    ("gclosure.lamination_means", "coeffopt.gclosure", "lamination_means",
     ("coeffopt.optimize",)),
    ("gclosure.optimal_t", "coeffopt.gclosure", "optimal_t",
     ("coeffopt.optimize",)),
    ("gclosure.optimal_laminate", "coeffopt.gclosure", "optimal_laminate",
     ("coeffopt.optimize",)),
    ("gclosure.clamp_spectrum", "coeffopt.gclosure", "clamp_spectrum",
     ("coeffopt.optimize",)),
    ("gclosure.eig_sym_2x2", "coeffopt.gclosure", "eig_sym_2x2",
     ("coeffopt.optimize", "coeffopt.cli")),
    ("gclosure.is_admissible", "coeffopt.gclosure", "is_admissible", ()),
    ("optimize.driver", "coeffopt.optimize", "compliance_descent",
     ("coeffopt.cli",)),
    ("optimize.driver", "coeffopt.optimize", "energy_relaxed_solve",
     ("coeffopt.cli",)),
    ("optimize.driver", "coeffopt.optimize", "general_relaxed_optimize",
     ("coeffopt.cli",)),
    ("cli.write_outputs", "coeffopt.cli", "write_outputs", ()),
)

LAYERS = ("mesh", "fem", "penalty", "gclosure", "optimize", "cli")

# per-layer metric -> span names it is computed from
REQUIRES = {
    "fem.solves": ("fem.solve",),
    "fem.solve_failures": ("fem.solve",),
    "fem.solve_s": ("fem.solve",),
    "fem.cg_s": ("fem.cg",),
    "fem.reduce_s": ("fem.solve", "fem.cg"),
    "fem.cg_iters": ("fem.cg",),
    "fem.cg_iters_per_solve_median": ("fem.cg",),
    "fem.cg_iters_per_solve_max": ("fem.cg",),
    "fem.assemble_s": ("fem.assemble",),
    "fem.assemble_calls": ("fem.assemble",),
    "fem.load_s": ("fem.load",),
    "fem.gradient_s": ("fem.gradient",),
    "optimize.iterations": ("optimize.driver",),
    "optimize.trial_solves": ("optimize.driver", "fem.solve"),
    "optimize.accept_ratio": ("optimize.driver", "fem.solve"),
    "optimize.self_s": ("optimize.driver",),
    "gclosure.lamination_means_s": ("gclosure.lamination_means",),
    "gclosure.optimal_t_s": ("gclosure.optimal_t",),
    "gclosure.optimal_laminate_s": ("gclosure.optimal_laminate",),
    "gclosure.clamp_spectrum_s": ("gclosure.clamp_spectrum",),
    "gclosure.eig_sym_2x2_s": ("gclosure.eig_sym_2x2",),
    "gclosure.is_admissible_s": ("gclosure.is_admissible",),
    "gclosure.is_admissible_calls": ("gclosure.is_admissible",),
    "mesh.build_s": ("mesh.build",),
    "mesh.write_vtk_s": ("mesh.write_vtk",),
    "mesh.vtk_bytes": ("mesh.write_vtk",),
    "penalty.s": ("penalty",),
    "cli.write_outputs_s": ("cli.write_outputs", "mesh.write_vtk"),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int | None
    outermost: bool  # no enclosing span of the same name
    end: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around coeffopt calls while installed.

    Use as a context manager; ``spans`` collects every span recorded
    while installed, ``missing`` lists the targets that were not found.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.missing_metrics: set[str] = set()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._driver_rhs = None

    # ---------------------------------------------------------- patching

    def install(self) -> "Tracer":
        self.missing = []
        try:
            self._install()
        except BaseException:
            self.uninstall()  # __exit__ does not run when __enter__ raises
            raise
        missing_spans = {n for n, m, a, imp in TARGETS
                         if f"{m}.{a}" in self.missing
                         or any(f"{o}.{a}" in self.missing for o in imp)}
        self.missing_metrics = {metric for metric, spans in REQUIRES.items()
                                if missing_spans.intersection(spans)}
        return self

    def _install(self) -> None:
        wrappers = {}
        for name, modname, attr, importers in TARGETS:
            module = _import(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                fn = None if cls is None else cls.__dict__.get(meth)
                if fn is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                self._patch(cls, meth, self._wrap(name, fn))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = wrappers[id(fn)] = self._wrap(name, fn)
            self._patch(module, attr, wrapped)
            for other in importers:
                other_mod = _import(other)
                if getattr(other_mod, attr, None) is fn:
                    self._patch(other_mod, attr, wrapped)
                else:
                    self.missing.append(f"{other}.{attr}")
        self._patch_aliases(wrappers)

    def _patch_aliases(self, wrappers: dict) -> None:
        """Patch any other coeffopt module that holds an original."""
        for modname, module in list(sys.modules.items()):
            if modname != "coeffopt" and not modname.startswith("coeffopt."):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None and wrapped.__wrapped__ is value:
                    self._patch(module, attr, wrapped)

    def _patch(self, owner, attr, wrapped) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------- spans

    def _wrap(self, name: str, fn):
        before = {"fem.cg": self._before_cg,
                  "fem.solve": self._before_solve,
                  "optimize.driver": self._before_driver}.get(name)
        after = {"optimize.driver": _after_driver,
                 "mesh.write_vtk": self._after_write_vtk}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            outermost = all(self.spans[i].name != name for i in self._open)
            span = Span(name, time.perf_counter(), parent, outermost)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                if before is not None:
                    before(span, args, kwargs)
                out = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, kwargs, out)
                return out
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()

        return traced

    def _before_cg(self, span, args, kwargs) -> None:
        span.info["iters"] = 0
        inner = kwargs.get("callback")

        def count(xk):
            span.info["iters"] += 1
            if inner is not None:
                inner(xk)

        kwargs["callback"] = count

    def _before_driver(self, span, args, kwargs) -> None:
        self._driver_rhs = None

    def _before_solve(self, span, args, kwargs) -> None:
        # A trial solve re-solves the state equation a driver's first
        # solve set up: same load vector object, new coefficient.
        if not any(self.spans[i].name == "optimize.driver"
                   for i in self._open):
            return
        system = args[0] if args else kwargs.get("system")
        rhs = getattr(system, "rhs", None)
        if rhs is None:
            self.missing_metrics.update(("optimize.trial_solves",
                                         "optimize.accept_ratio"))
        elif self._driver_rhs is None:
            self._driver_rhs = rhs
        else:
            span.info["trial"] = rhs is self._driver_rhs

    def _after_write_vtk(self, span, args, kwargs, out) -> None:
        path = args[0] if args else kwargs.get("path")
        if path is None:
            self.missing_metrics.add("mesh.vtk_bytes")
        else:
            span.info["bytes"] = os.path.getsize(path)


def _import(modname: str):
    """The module, or None when it no longer exists (its names go missing)."""
    try:
        return importlib.import_module(modname)
    except ImportError:
        return None


def _after_driver(span, args, kwargs, out) -> None:
    report = out[-1] if isinstance(out, tuple) and out else None
    span.info["iterations"] = getattr(report, "iterations", None)


# ------------------------------------------------------------ metrics

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (the span name's first component)."""
    out = dict.fromkeys(LAYERS, 0.0)
    for s, own in zip(spans, self_times(spans)):
        out[s.name.split(".")[0]] += own
    return out


def layer_metrics(spans: list[Span], missing: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced round, without missing ones."""
    own = self_times(spans)

    def total(name):
        return sum(s.duration for s in spans if s.name == name and s.outermost)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    cg = [s.info["iters"] for s in spans if s.name == "fem.cg"]
    drivers = [s for s in spans if s.name == "optimize.driver"]
    iterations = [s.info.get("iterations") for s in drivers]
    trials = sum(1 for s in spans if s.info.get("trial"))
    m = {
        "fem.solves": count("fem.solve"),
        "fem.solve_failures": sum(1 for s in spans if s.name == "fem.solve"
                                  and s.error == "SolverFailure"),
        "fem.solve_s": total("fem.solve"),
        "fem.cg_s": total("fem.cg"),
        "fem.reduce_s": total("fem.solve") - total("fem.cg"),
        "fem.cg_iters": sum(cg),
        "fem.cg_iters_per_solve_median": statistics.median(cg) if cg else 0,
        "fem.cg_iters_per_solve_max": max(cg, default=0),
        "fem.assemble_s": total("fem.assemble"),
        "fem.assemble_calls": count("fem.assemble"),
        "fem.load_s": total("fem.load"),
        "fem.gradient_s": total("fem.gradient"),
        "optimize.trial_solves": trials,
        "optimize.self_s": sum(o for s, o in zip(spans, own)
                               if s.name == "optimize.driver"),
        "mesh.build_s": total("mesh.build"),
        "mesh.write_vtk_s": total("mesh.write_vtk"),
        "mesh.vtk_bytes": sum(s.info.get("bytes", 0) for s in spans),
        "penalty.s": total("penalty"),
        "cli.write_outputs_s": sum(o for s, o in zip(spans, own)
                                   if s.name == "cli.write_outputs"),
    }
    if None in iterations:
        missing = missing | {"optimize.iterations", "optimize.accept_ratio"}
    else:
        m["optimize.iterations"] = sum(iterations)
        m["optimize.accept_ratio"] = sum(iterations) / trials if trials else 0.0
    if not trials and any(iterations):
        # a driver updated its design without a recognised trial solve:
        # the trial test no longer matches how it solves, so the two
        # metrics are unknown, not zero
        missing = missing | {"optimize.trial_solves", "optimize.accept_ratio"}
    for fn in ("lamination_means", "optimal_t", "optimal_laminate",
               "clamp_spectrum", "eig_sym_2x2", "is_admissible"):
        m[f"gclosure.{fn}_s"] = total(f"gclosure.{fn}")
    m["gclosure.is_admissible_calls"] = count("gclosure.is_admissible")
    return {k: v for k, v in m.items() if k not in missing}
