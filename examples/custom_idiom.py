"""Extending the constraint language with a new idiom.

The paper's key architectural claim (§3, §8) is that the constraint
formulation *decouples specification from detection*: new idioms are
new constraint programs, not new detection algorithms.  This example
defines a *dot-product* idiom from the existing atoms on top of the
shipped for-loop specification — a for loop whose accumulator update is
``acc + a[i] * b[i]`` over two distinct arrays — and runs the
unmodified generic solver on it.

Run with::

    python examples/custom_idiom.py
"""

from repro import compile_source
from repro.constraints import (
    ComputedOnlyFrom,
    ConstraintAnd,
    ConstraintOr,
    DefDominatesBlock,
    Distinct,
    FlowPolicy,
    IdiomSpec,
    InBlock,
    IsConstantLike,
    Opcode,
    PhiIncomingFromBlock,
    PhiOfTwo,
    SolverContext,
    detect,
)
from repro.idioms import IdiomRegistry


def _policies(ctx, assignment):
    acc = assignment["acc"]
    iterator = assignment["iterator"]
    data = FlowPolicy(extra_sources=(acc,), rejected=(iterator,),
                      index_sources=(iterator,), require_affine_index=True)
    control = FlowPolicy(rejected=(iterator, acc),
                         index_sources=(iterator,),
                         require_affine_index=True)
    return data, control


def dot_product_spec() -> IdiomSpec:
    """acc' = acc + load(gep(base_a, i)) * load(gep(base_b, i))."""
    # The for loop of Fig. 5, as shipped in specs/forloop.icsl.
    for_loop = IdiomRegistry().spec("for-loop")
    labels = for_loop.label_order + (
        "acc", "update", "acc_init", "product", "load_a", "load_b",
        "gep_a", "gep_b", "base_a", "base_b",
    )
    constraint = ConstraintAnd(
        for_loop.constraint,
        PhiOfTwo("acc", "update", "acc_init"),
        InBlock("acc", "header"),
        PhiIncomingFromBlock("acc", "update", "latch"),
        PhiIncomingFromBlock("acc", "acc_init", "entry"),
        # The initial value is loop invariant: a constant, or defined
        # before the loop is entered.
        ConstraintOr(IsConstantLike("acc_init"),
                     DefDominatesBlock("acc_init", "entry")),
        # The update is acc + (a[i] * b[i]).
        Opcode("update", "fadd", ("acc", "product"), commutative=True),
        Opcode("product", "fmul", ("load_a", "load_b"), commutative=True),
        Opcode("load_a", "load", ("gep_a",)),
        Opcode("load_b", "load", ("gep_b",)),
        Opcode("gep_a", "gep", ("base_a", None)),
        Opcode("gep_b", "gep", ("base_b", None)),
        Distinct("base_a", "base_b"),
        Distinct("acc", "iterator"),
        ComputedOnlyFrom("update", "header", _policies,
                         extra_labels=("acc", "iterator")),
    )
    return IdiomSpec("dot-product", labels, constraint)


SOURCE = """
double xs[256]; double ys[256]; double ws[256]; int n;

double plain_dot(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + xs[i] * ys[i];
    return s;
}

double weighted_norm(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + ws[i] * ws[i];
    return s;
}

double plain_sum(void) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s = s + xs[i];
    return s;
}
"""


def main() -> None:
    module = compile_source(SOURCE, "custom")
    spec = dot_product_spec()
    print(f"idiom {spec.name!r}: {len(spec.label_order)} labels")
    for function in module.defined_functions():
        ctx = SolverContext(function, module)
        solutions = detect(ctx, spec)
        if solutions:
            for solution in solutions:
                a = solution["base_a"].short_name()
                b = solution["base_b"].short_name()
                print(f"  {function.name}: dot product over {a} x {b}")
        else:
            print(f"  {function.name}: no dot product")
    # plain_dot matches; weighted_norm does not (same array twice —
    # Distinct(base_a, base_b) rejects it); plain_sum has no product.


if __name__ == "__main__":
    main()
