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

from repro.target.build import build_target_program
from repro.target.cgen import render_c
from repro.target.npgen import HAVE_NUMPY, execute_numpy_batch
from repro.target.occam import render_occam
from repro.target.pretty import format_piecewise, format_repeater, render_paper
from repro.target.pygen import execute_python, render_python

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
