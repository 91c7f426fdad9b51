"""Fault injection for the optimizer: unsound passes must be rejected.

Mirror of ``tests/validation/test_fault_injection.py`` one layer up: the
pass *manager* treats every pass as untrusted, so a deliberately unsound
pass (dropping a store, miscompiling a constant, producing an ill-formed
AST, or crashing outright) must yield a ``rejected`` certificate and
leave the function exactly as it was before the pass ran.
"""

import random

from repro.bedrock2 import ast as b2
from repro.opt import ConstantFolding, Pass, PassManager
from repro.programs import get_program
from repro.validation import pass_validator


class DropStores(Pass):
    """Unsound: silently deletes every SStore (keeps loads and locals)."""

    name = "drop-stores"

    def run(self, fn: b2.Function, width: int) -> b2.Function:
        def strip(stmt):
            if isinstance(stmt, b2.SSeq):
                return b2.SSeq(strip(stmt.first), strip(stmt.second))
            if isinstance(stmt, b2.SCond):
                return b2.SCond(stmt.cond, strip(stmt.then_), strip(stmt.else_))
            if isinstance(stmt, b2.SWhile):
                return b2.SWhile(stmt.cond, strip(stmt.body))
            if isinstance(stmt, b2.SStackalloc):
                return b2.SStackalloc(stmt.lhs, stmt.nbytes, strip(stmt.body))
            if isinstance(stmt, b2.SStore):
                return b2.SSkip()
            return stmt

        return self._with_body(fn, strip(fn.body))


class OffByOneLiterals(Pass):
    """Unsound: 'folds' every literal to literal + 1."""

    name = "off-by-one"

    def run(self, fn: b2.Function, width: int) -> b2.Function:
        def bump(expr):
            if isinstance(expr, b2.ELit):
                return b2.ELit((expr.value + 1) % (1 << width))
            return expr

        body = b2.map_stmt(fn.body, on_expr=lambda e: b2.map_expr(e, bump))
        return self._with_body(fn, body)


class IllFormedOutput(Pass):
    """Broken: introduces a read of an undefined local."""

    name = "ill-formed"

    def run(self, fn: b2.Function, width: int) -> b2.Function:
        rogue = b2.SSet(fn.rets[0], b2.EVar("never_assigned"))
        return self._with_body(fn, b2.seq_of(fn.body, rogue))


class CrashingPass(Pass):
    name = "crashes"

    def run(self, fn: b2.Function, width: int) -> b2.Function:
        raise RuntimeError("pass blew up")


def _managed(program_name: str, passes):
    program = get_program(program_name)
    compiled = program.compile()
    validator = pass_validator(
        compiled,
        trials=8,
        rng=random.Random(7),
        input_gen=program.validation_input_gen(),
    )
    manager = PassManager(passes, validator=validator)
    fn, certs = manager.run(compiled.bedrock_fn)
    return compiled, fn, certs


class TestUnsoundPassesRejected:
    def test_dropped_store_rejected(self):
        # upstr writes its result through SStore: dropping them is visible
        # in the out_memory comparison, and only there.
        compiled, fn, certs = _managed("upstr", [DropStores()])
        (cert,) = certs
        assert cert.status == "rejected"
        assert "differential check failed" in cert.detail
        assert fn == compiled.bedrock_fn  # fallback to the pre-pass AST

    def test_off_by_one_literals_rejected(self):
        compiled, fn, certs = _managed("fnv1a", [OffByOneLiterals()])
        (cert,) = certs
        assert cert.status == "rejected"
        assert fn == compiled.bedrock_fn

    def test_ill_formed_output_rejected_without_running_code(self):
        # The well-formedness gate catches this before differential
        # testing; no validator is even needed.
        program = get_program("crc32")
        compiled = program.compile()
        manager = PassManager([IllFormedOutput()], validator=None)
        fn, certs = manager.run(compiled.bedrock_fn)
        (cert,) = certs
        assert cert.status == "rejected"
        assert "ill-formed" in cert.detail
        assert fn == compiled.bedrock_fn

    def test_crashing_pass_rejected(self):
        compiled, fn, certs = _managed("m3s", [CrashingPass()])
        (cert,) = certs
        assert cert.status == "rejected"
        assert "pass raised" in cert.detail
        assert fn == compiled.bedrock_fn

    def test_unsound_pass_amid_sound_pipeline(self):
        """A rejected pass degrades optimization, never correctness."""
        compiled, fn, certs = _managed(
            "upstr", [ConstantFolding(), DropStores(), ConstantFolding()]
        )
        by_name = {c.pass_name: c for c in certs}
        assert by_name["drop-stores"].status == "rejected"
        assert all(
            c.status in ("validated", "no-change")
            for c in certs
            if c.pass_name != "drop-stores"
        )
        # The surviving AST still contains every store.
        def stores(stmt):
            if isinstance(stmt, b2.SStore):
                return 1
            total = 0
            for attr in ("first", "second", "then_", "else_", "body"):
                child = getattr(stmt, attr, None)
                if isinstance(child, b2.Stmt):
                    total += stores(child)
            return total

        assert stores(fn.body) == stores(compiled.bedrock_fn.body)


class TestCertificates:
    def test_hashes_chain_across_passes(self):
        """Certificates form a hash chain from input AST to output AST."""
        program = get_program("fnv1a")
        compiled = program.compile()
        optimized = compiled.optimize(1, input_gen=program.validation_input_gen())
        report = optimized.opt_report
        assert report.rejected == []
        current = b2.fingerprint(compiled.bedrock_fn)
        for cert in report.certificates:
            assert cert.before_hash == current
            if cert.status == "validated":
                assert cert.after_hash != cert.before_hash
                current = cert.after_hash
            else:  # no-change and rejected both keep the pre-pass AST
                assert cert.after_hash == cert.before_hash
        assert current == b2.fingerprint(optimized.bedrock_fn)

    def test_report_renders(self):
        program = get_program("crc32")
        optimized = program.compile(opt_level=1)
        text = optimized.opt_report.render()
        assert "optimize(level=1)" in text
        assert "validated" in text
