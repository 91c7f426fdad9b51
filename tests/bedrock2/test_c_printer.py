"""Tests for the Bedrock2-to-C pretty-printer."""


from repro.bedrock2 import ast
from repro.bedrock2.ast import (
    EInlineTable,
    Function,
    Program,
    SCall,
    SCond,
    SInteract,
    SSet,
    SSkip,
    SStackalloc,
    SWhile,
    add,
    lit,
    load1,
    ltu,
    seq_of,
    store,
    var,
)
from repro.bedrock2.c_printer import print_c_function, print_c_program


def upstr_like_function():
    """for (i = 0; i < len; i++) s[i] = ...; the paper's Box 1 shape."""
    body = seq_of(
        SSet("i", lit(0)),
        SWhile(
            ltu(var("i"), var("len")),
            seq_of(
                store(1, add(var("s"), var("i")), load1(add(var("s"), var("i")))),
                SSet("i", add(var("i"), lit(1))),
            ),
        ),
    )
    return Function("upstr", ("s", "len"), (), body)


class TestFunctionPrinting:
    def test_signature_void(self):
        text = print_c_function(upstr_like_function())
        assert "void upstr(uintptr_t s, uintptr_t len)" in text

    def test_signature_single_return(self):
        fn = Function("f", ("x",), ("r",), SSet("r", var("x")))
        text = print_c_function(fn)
        assert "uintptr_t f(uintptr_t x)" in text
        assert "return r;" in text

    def test_signature_multiple_returns(self):
        fn = Function(
            "f", (), ("a", "b"), seq_of(SSet("a", lit(1)), SSet("b", lit(2)))
        )
        text = print_c_function(fn)
        assert "uintptr_t *_out0" in text
        assert "*_out1 = b;" in text

    def test_locals_declared_once(self):
        text = print_c_function(upstr_like_function())
        assert text.count("uintptr_t i = 0;") == 1

    def test_while_loop_rendered(self):
        text = print_c_function(upstr_like_function())
        assert "while ((i < len)) {" in text

    def test_store_load_rendered(self):
        text = print_c_function(upstr_like_function())
        assert "_br2_store(" in text
        assert "_br2_load(" in text

    def test_cond_with_else(self):
        fn = Function(
            "f",
            ("x",),
            ("r",),
            SCond(var("x"), SSet("r", lit(1)), SSet("r", lit(2))),
        )
        text = print_c_function(fn)
        assert "if (x) {" in text
        assert "} else {" in text

    def test_cond_without_else_omits_branch(self):
        fn = Function("f", ("x",), (), SCond(var("x"), SSkip(), SSkip()))
        text = print_c_function(fn)
        assert "else" not in text

    def test_stackalloc_renders_array(self):
        fn = Function("f", (), (), SStackalloc("tmp", 32, SSkip()))
        text = print_c_function(fn)
        assert "uint8_t _stack_tmp[32];" in text
        assert "tmp = (uintptr_t)&_stack_tmp[0];" in text

    def test_inline_table_rendered_as_static_const(self):
        table = bytes([1, 2, 3, 4])
        fn = Function(
            "f", ("i",), ("r",), SSet("r", EInlineTable(1, table, var("i")))
        )
        text = print_c_function(fn)
        assert "static const uint8_t _f_table0[4] = {1, 2, 3, 4};" in text
        assert "_f_table0[i]" in text

    def test_call_rendered(self):
        fn = Function("f", (), ("r",), SCall(("r",), "g", (lit(1),)))
        text = print_c_function(fn)
        assert "r = g((uintptr_t)(1ULL));" in text

    def test_interact_rendered(self):
        fn = Function("f", (), (), SInteract((), "putchar", (lit(65),)))
        text = print_c_function(fn)
        assert "_br2_interact_putchar" in text

    def test_signed_ops_cast(self):
        fn = Function(
            "f",
            ("x", "y"),
            ("r",),
            SSet("r", ast.EOp("lts", var("x"), var("y"))),
        )
        text = print_c_function(fn)
        assert "(intptr_t)x < (intptr_t)y" in text


class TestProgramPrinting:
    def test_prelude_included(self):
        text = print_c_program(Program((upstr_like_function(),)))
        assert "#include <stdint.h>" in text
        assert "_br2_load" in text

    def test_prelude_can_be_omitted(self):
        text = print_c_program(Program(()), include_prelude=False)
        assert "#include" not in text

    def test_multiple_functions(self):
        fns = (
            Function("f", (), ("r",), SSet("r", lit(1))),
            Function("g", (), ("r",), SSet("r", lit(2))),
        )
        text = print_c_program(Program(fns))
        assert text.index("uintptr_t f(") < text.index("uintptr_t g(")

    def test_output_is_deterministic(self):
        program = Program((upstr_like_function(),))
        assert print_c_program(program) == print_c_program(program)

    def test_printer_stays_small(self):
        # The paper's TCB argument: the printer is ~200 lines.  Guard against
        # it silently growing into a compiler.
        import inspect

        import repro.bedrock2.c_printer as mod

        assert len(inspect.getsource(mod).splitlines()) < 400


def test_inline_tables_are_named_by_contents_not_identity():
    """Equal functions emit equal code, however their table bytes were built.

    A serialized round trip (the compilation cache's decode path) gives
    each ``EInlineTable`` its own ``bytes`` object; both backends must
    still see one table.
    """
    from repro.bedrock2.serial import decode_function, encode_function
    from repro.riscv.compiler import compile_function

    table = bytes(range(16))
    first = EInlineTable(1, table, var("i"))
    second = EInlineTable(1, table, add(var("i"), lit(1)))
    fn = Function("f", ("i",), ("r",), SSet("r", add(first, second)))
    decoded = decode_function(encode_function(fn))
    assert decoded == fn
    assert decoded.body.rhs.lhs.data is not decoded.body.rhs.rhs.data

    assert print_c_function(decoded) == print_c_function(fn)
    assert print_c_function(fn).count("static const uint8_t") == 1
    assert compile_function(decoded) == compile_function(fn)
    assert len(compile_function(fn).data) == 16
