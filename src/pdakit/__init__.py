"""pdakit: placement delivery arrays for centralized coded caching.

Construct, verify, transform, bound, exhaustively search, and simulate the
star/symbol grids that encode cache placement and XOR delivery schedules.

The six layers are lazy: `import pdakit` puts each of them in sys.modules
and binds it here without running it, and a layer runs at the first use of
a name from it.  So an error inside a layer surfaces at that first use, and
a run that raises leaves the layer lazy again: every later use runs it
anew and raises the layer's own error.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Every public name, by the layer that defines it.
_EXPORTS = {
    "core": (
        "STAR", "Cell", "ColRepeat", "CornerViolation", "PdaGrid", "PdaParams",
        "PdaUsageError", "RowRepeat", "StarCountMismatch", "VerificationReport",
        "canonical_form", "concat", "find_isomorphism", "grids_equivalent",
        "permute", "replicate", "role_permute", "subgrid", "symbol_dual",
        "transpose", "verify",
    ),
    "bounds": (
        "BoundEstimate", "StructuralReport", "ceil_div", "conjectured_k_fz2",
        "f_sequence", "lower_bound_s", "lower_bound_s_fz2", "pjd_holds",
        "pjd_max_k", "recursive_lower_bound_s", "split_mf_r",
        "structural_checks", "upper_bound_k",
    ),
    "constructions": ("colex_rank", "f2_base", "mn_pda", "optimal_fz2", "subsets_colex"),
    "formats": ("PdaFormatError", "parse", "parse_any", "parse_json", "render", "render_json"),
    "search": ("SearchConfig", "SearchLevel", "SearchOutcome", "decompose", "max_k", "min_s"),
    "caching": (
        "Broadcast", "CachingInstance", "CachingTranscript", "DecodeFailure",
        "decode", "deliver", "place", "rate", "simulate", "simulate_many",
        "subfile_content",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = sorted(_LAYER_OF)


class _Rearm:
    """A layer's loader: a run that raises puts the module back as it was
    before the run, lazy, instead of leaving it half-run."""

    def __init__(self, loader) -> None:
        self.loader = loader
        self.lazy = None  # the lazy module class, set once the module is made

    def __getattr__(self, name: str):  # create_module, get_source, ...
        return getattr(self.loader, name)

    def exec_module(self, module) -> None:
        before = dict(vars(module))
        state = module.__spec__.loader_state
        try:
            self.loader.exec_module(module)
        except BaseException:
            vars(module).clear()
            vars(module).update(before)
            state["is_loading"] = False  # the lazy loader's flag from 3.12 on
            module.__class__ = self.lazy
            raise


def _lazy_layer(layer: str):
    """The layer's module, registered in sys.modules but not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    rearm = _Rearm(spec.loader)
    spec.loader = importlib.util.LazyLoader(rearm)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    rearm.lazy = type(module)
    return module


for _layer in _EXPORTS:
    globals()[_layer] = _lazy_layer(_layer)
del _layer


def __getattr__(name: str):
    # Cached here after the first lookup, so hot loops read a plain global.
    try:
        layer = _LAYER_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(globals()[layer], name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
