"""The SFQ abstract cell class.

``SFQ`` is the child of ``Transitional`` described in Section 4.1: it
requires additional attributes specific to SFQ cell design — ``jjs`` (the
number of Josephson junctions, an area metric) and ``firing_delay`` — from
its implementing classes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.errors import WellFormednessError
from ..core.transitional import FiringDelaySpec, Transitional


class SFQ(Transitional):
    """Base class for SFQ cells: a Transitional plus ``jjs``/``firing_delay``.

    Subclasses must define ``jjs`` (int > 0) and ``firing_delay`` (a number,
    distribution, or per-output dict) in addition to the usual
    ``Transitional`` attributes. Both can be overridden per instance.

    ``lint_suppress`` lists static-analysis rule IDs (or ID prefixes, e.g.
    ``"PL1"``) that :mod:`repro.lint` must not report against this cell or
    any node instantiating it — the per-cell suppression channel of the rule
    framework.
    """

    jjs: int

    #: Rule IDs / prefixes the static analyzer skips for this cell.
    lint_suppress: Sequence[str] = ()

    @classmethod
    def _check_class_attrs(cls) -> None:
        if getattr(cls, "jjs", None) is None:
            raise WellFormednessError(
                f"{cls.__name__}: SFQ cells must define the 'jjs' attribute "
                "(number of Josephson junctions)"
            )
        if getattr(cls, "firing_delay", None) is None:
            raise WellFormednessError(
                f"{cls.__name__}: SFQ cells must define the 'firing_delay' attribute"
            )
        super()._check_class_attrs()

    def __init__(self, jjs: Optional[int] = None, **kwargs):
        super().__init__(**kwargs)
        if jjs is not None:
            # bool is a subclass of int: AND(jjs=True) would silently set
            # jjs = 1 and corrupt every area/energy metric downstream.
            if isinstance(jjs, bool) or not isinstance(jjs, int) or jjs <= 0:
                raise WellFormednessError(
                    f"{type(self).__name__}: jjs override must be a positive "
                    f"integer, got {jjs!r}"
                )
            self.jjs = jjs
            self.overrides["jjs"] = jjs

    @classmethod
    def lint(cls, **options):
        """Statically analyze this cell's PyLSE Machine.

        Convenience wrapper over :func:`repro.lint.lint_machine`; accepts
        the same keyword options (``select=``, ``ignore=``) and returns a
        :class:`repro.lint.LintReport`.
        """
        from ..lint import lint_machine

        return lint_machine(cls, **options)

    @classmethod
    def dsl_size(cls) -> int:
        """Number of transitions written in the DSL (Table 3's "Size").

        Roughly the number of source lines: a transition dict with a list
        trigger counts once.
        """
        return len(cls.transitions)
