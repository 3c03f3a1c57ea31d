"""A whole dependency program: several grids and the dependences between them.

This is the container the user fills in when describing an ML block in the
DSL (the code of the paper's Figure 5); it bundles the individual analyses
and code generation of every dependence and gives the examples and tests a
single entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import DslError
from repro.dsl.analysis import NormalizedDependence, analyze_dependence
from repro.dsl.codegen import CuSyncGen, GeneratedPolicies
from repro.dsl.dep import Dep
from repro.dsl.grid import Grid


@dataclass
class DependencyProgram:
    """Grids plus dependences, with cached analysis/codegen results."""

    name: str = "program"
    grids: List[Grid] = field(default_factory=list)
    deps: List[Dep] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_dep(self, dep: Dep) -> Dep:
        for side in (dep.consumer, *dep.producers):
            if side.grid not in self.grids:
                self.grids.append(side.grid)
        self.deps.append(dep)
        return dep

    # ------------------------------------------------------------------
    # Analysis / code generation over every dependence
    # ------------------------------------------------------------------
    def analyze(self) -> List[NormalizedDependence]:
        """Normalize (and bounds-check) every producer side of every dep."""
        if not self.deps:
            raise DslError(f"program '{self.name}' declares no dependences")
        normalized: List[NormalizedDependence] = []
        for dep in self.deps:
            for index in range(len(dep.producers)):
                normalized.append(analyze_dependence(dep, index))
        return normalized

    def generate(self) -> List[GeneratedPolicies]:
        """Run cuSyncGen over every producer side of every dependence."""
        generator = CuSyncGen()
        generated: List[GeneratedPolicies] = []
        for dep in self.deps:
            generated.extend(generator.generate_all(dep))
        return generated

    def policy_menu(self) -> Dict[str, int]:
        """How many dependences each generated policy family applies to."""
        menu: Dict[str, int] = {}
        for generated in self.generate():
            for name in generated.policy_names:
                menu[name] = menu.get(name, 0) + 1
        return menu
