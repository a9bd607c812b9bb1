"""Target backends: the compiled program rendered for real machines.

``build_target_program`` lowers a :class:`~repro.core.program.SystolicProgram`
into the abstract target syntax of Appendix C; the renderers then produce

* :func:`render_paper`  -- the paper's own notation (Appendices D/E),
* :func:`render_occam`  -- the transputer translation (occam flavour),
* :func:`render_c`      -- C with channel directives (Symult s2010 flavour),
* :func:`render_python` -- an executable, stdlib-only Python module.

:func:`execute_python` renders, compiles, and runs the Python module --
the compiled fast path whose results are bit-for-bit identical to the
coroutine simulator and the sequential oracle.  :func:`execute_numpy_batch`
(the *npgen* backend, optional NumPy extra) skips code generation entirely
and executes whole wavefronts as batched array operations -- same results,
orders of magnitude faster at large sizes, with a leading batch axis for
many independent input sets, and ``shape=`` for the banded run on a fixed
physical array.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "HAVE_NUMPY",
    "build_target_program",
    "execute_numpy_batch",
    "execute_python",
    "format_piecewise",
    "format_repeater",
    "render_c",
    "render_occam",
    "render_paper",
    "render_python",
]

#: NumPy loads with ``repro.target.npgen``, on first access of its names
__getattr__ = lazy_exports(
    __name__,
    {
        "repro.target.build": ("build_target_program",),
        "repro.target.cgen": ("render_c",),
        "repro.target.npgen": ("HAVE_NUMPY", "execute_numpy_batch"),
        "repro.target.occam": ("render_occam",),
        "repro.target.pretty": ("format_piecewise", "format_repeater", "render_paper"),
        "repro.target.pygen": ("execute_python", "render_python"),
    },
)
