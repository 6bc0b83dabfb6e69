"""Tests for mem2reg, DCE, CSE, LICM and CFG simplification."""

from repro.frontend import compile_source, lower_source
from repro.ir import (
    AllocaInst,
    GEPInst,
    LoadInst,
    Module,
    PhiInst,
    print_module,
    verify_module,
)
from repro.passes import promote_allocas, promotable_allocas
from repro.passes.cse import local_cse
from repro.passes.licm import hoist_invariant_loads
from repro.passes.simplify import (
    dead_code_elimination,
    merge_straightline_blocks,
    remove_trivial_phis,
    remove_unreachable_blocks,
)
from repro.runtime import Interpreter, Memory
from repro.workloads import all_programs


SOURCE = """
double a[32]; int n;
double f(void) {
    double s = 0.0;
    double unusedcalc = 0.0;
    for (int i = 0; i < n; i++) {
        unusedcalc = unusedcalc + 1.0;
        if (a[i] > 0.25) {
            s = s + a[i];
        }
    }
    return s;
}
"""


def _run(module: Module) -> float:
    memory = Memory(module)
    memory.buffers["n"].data[0] = 20
    for i in range(32):
        memory.buffers["a"].data[i] = (i * 0.37) % 1.0
    interp = Interpreter(module, memory)
    return interp.call(module.get_function("f"), [])


def test_mem2reg_differential_semantics():
    """Alloca form and SSA form must compute the same value."""
    before = lower_source(SOURCE)
    after = lower_source(SOURCE)
    for fn in after.defined_functions():
        remove_unreachable_blocks(fn)
        promote_allocas(fn)
    verify_module(after)
    assert abs(_run(before) - _run(after)) < 1e-12


def test_promotable_allocas_excludes_arrays():
    module = lower_source(
        """
        double f(void) {
            double x = 1.0;
            double buf[4];
            buf[0] = x;
            return buf[0];
        }
        """
    )
    fn = module.get_function("f")
    promotable = promotable_allocas(fn)
    names = {a.name for a in promotable}
    assert "x" in names
    assert "buf" not in names


def test_mem2reg_inserts_phi_at_join():
    module = lower_source(
        """
        int f(int c) {
            int x = 0;
            if (c > 0) { x = 1; } else { x = 2; }
            return x;
        }
        """
    )
    fn = module.get_function("f")
    remove_unreachable_blocks(fn)
    promote_allocas(fn)
    phis = [i for i in fn.instructions() if isinstance(i, PhiInst)]
    assert len(phis) >= 1


def test_dce_removes_dead_phi_cycles():
    module = compile_source(SOURCE)
    fn = module.get_function("f")
    # "unusedcalc" feeds only itself: the pipeline must have removed it.
    phi_names = {i.name for i in fn.instructions()
                 if isinstance(i, PhiInst)}
    assert not any("unused" in name for name in phi_names)


def test_cse_unifies_redundant_loads():
    module = lower_source(
        """
        double a[8];
        double f(int i) { return a[i] * a[i]; }
        """
    )
    fn = module.get_function("f")
    remove_unreachable_blocks(fn)
    promote_allocas(fn)
    before = sum(1 for i in fn.instructions() if isinstance(i, LoadInst))
    removed = local_cse(fn)
    after = sum(1 for i in fn.instructions() if isinstance(i, LoadInst))
    assert removed >= 1
    assert after < before


def test_cse_respects_intervening_stores():
    module = lower_source(
        """
        double a[8];
        double f(int i) {
            double x = a[i];
            a[i] = 0.0;
            return x + a[i];
        }
        """
    )
    fn = module.get_function("f")
    remove_unreachable_blocks(fn)
    promote_allocas(fn)
    local_cse(fn)
    loads = [
        i for i in fn.instructions()
        if isinstance(i, LoadInst) and isinstance(i.pointer, GEPInst)
    ]
    assert len(loads) == 2  # the store kills the first load's value


def test_licm_hoists_global_bound_load():
    module = compile_source(
        """
        double a[16]; int n;
        double f(void) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s = s + a[i];
            return s;
        }
        """
    )
    fn = module.get_function("f")
    header = next(b for b in fn.blocks if b.name.startswith("for.cond"))
    header_loads = [
        i for i in header.instructions if isinstance(i, LoadInst)
    ]
    # The load of n must have been hoisted out of the loop.
    scalar_loads = [
        l for l in header_loads if not isinstance(l.pointer, GEPInst)
    ]
    assert not scalar_loads


def test_licm_does_not_hoist_stored_global():
    module = compile_source(
        """
        int n;
        void f(void) {
            for (int i = 0; i < n; i++) {
                n = n - 1;
            }
        }
        """
    )
    fn = module.get_function("f")
    loop_blocks = [b for b in fn.blocks if b.name.startswith("for")]
    loads_in_loop = [
        i for b in loop_blocks for i in b.instructions
        if isinstance(i, LoadInst)
    ]
    assert loads_in_loop  # still re-loaded every iteration


def test_compile_source_is_deterministic_on_the_corpus():
    """Blocks hash by identity, so any pass that walks a set of blocks
    can emit a different IR from one compile to the next; LICM once
    did (hoisted loads landed in the preheader in set order).  Every
    corpus program must print identically across repeated compiles in
    one process."""
    for program in all_programs():
        first = print_module(compile_source(program.source, program.name))
        for _ in range(9):
            again = compile_source(program.source, program.name)
            assert print_module(again) == first, (program.suite,
                                                  program.name)


def test_unreachable_block_removal():
    module = lower_source(
        """
        int f(void) {
            return 1;
            return 2;
        }
        """
    )
    fn = module.get_function("f")
    removed = remove_unreachable_blocks(fn)
    assert removed >= 1
    verify_module(module, check_dominance=False)


def test_merge_straightline_blocks_preserves_semantics():
    module = lower_source(SOURCE)
    for fn in module.defined_functions():
        remove_unreachable_blocks(fn)
        promote_allocas(fn)
        dead_code_elimination(fn)
        remove_trivial_phis(fn)
    expected = _run(module)
    for fn in module.defined_functions():
        merge_straightline_blocks(fn)
    verify_module(module)
    assert abs(_run(module) - expected) < 1e-12
