"""The full mapping compiler — the baseline the paper speeds up.

``compile_mapping`` performs the whole pipeline of Section 2.2: analyse
fragments, generate query and update views, and validate roundtripping.
Its cost grows with schema size and, exponentially, with mapping
complexity (fragments per table / associations per table), reproducing
the compilation-time behaviour of Figure 4.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.budget import WorkBudget
from repro.compiler.validation import ValidationReport, validate_mapping
from repro.compiler.viewgen import generate_views
from repro.containment.cache import ValidationCache
from repro.mapping.fragments import Mapping
from repro.mapping.views import CompiledViews


@dataclass
class CompilationResult:
    """Views plus bookkeeping from one full compilation."""

    mapping: Mapping
    views: CompiledViews
    report: Optional[ValidationReport]
    elapsed: float

    def __str__(self) -> str:
        validated = str(self.report) if self.report else "not validated"
        return f"CompilationResult({self.elapsed:.3f}s, {validated})"


def compile_mapping(
    mapping: Mapping,
    budget: Optional[WorkBudget] = None,
    validate: bool = True,
    optimize: bool = False,
    *,
    cache: Optional[ValidationCache] = None,
) -> CompilationResult:
    """Compile *mapping* into query and update views.

    With ``validate=True`` (the default, as in Entity Framework) the
    mapping is checked for roundtripping; a ``ValidationError`` aborts the
    compilation.  ``validate=False`` generates views only — used by the
    view-reuse ablation benchmark.  ``optimize=True`` additionally rewrites
    the query views into the cheaper LOJ/UNION ALL shapes (Section 6).
    ``cache`` memoises the validation checks (see
    :func:`repro.compiler.validation.validate_mapping`).
    """
    started = time.perf_counter()
    mapping.check_well_formed()
    views = generate_views(mapping, budget)
    report: Optional[ValidationReport] = None
    if validate:
        report = validate_mapping(mapping, views, budget, cache=cache)
    if optimize:
        from repro.compiler.optimize import optimize_views

        views = optimize_views(mapping, views, budget)
    return CompilationResult(
        mapping=mapping,
        views=views,
        report=report,
        elapsed=time.perf_counter() - started,
    )
