package corbaidl

import (
	"strings"
	"testing"
)

// Tests for the //flick: annotation mechanism: the idempotency marker
// must bind to the right operation in both comment positions, and
// misspelled or misplaced annotations must fail the parse — a silently
// dropped robustness annotation would quietly weaken the retry policy.

func TestIdempotentPragmaPreceding(t *testing.T) {
	f := mustParse(t, `
		interface Acct {
			//flick:idempotent
			long balance();
			long withdraw(in long amount);
		};
	`)
	it := f.LookupInterface("Acct")
	if op := it.LookupOp("balance"); op == nil || !op.Idempotent {
		t.Error("preceding //flick:idempotent did not mark balance")
	}
	if op := it.LookupOp("withdraw"); op == nil || op.Idempotent {
		t.Error("unannotated withdraw marked idempotent")
	}
}

func TestIdempotentPragmaTrailing(t *testing.T) {
	f := mustParse(t, `
		interface Acct {
			long balance(); //flick:idempotent
			long withdraw(in long amount);
		};
	`)
	it := f.LookupInterface("Acct")
	if op := it.LookupOp("balance"); op == nil || !op.Idempotent {
		t.Error("trailing //flick:idempotent did not mark balance")
	}
	if op := it.LookupOp("withdraw"); op == nil || op.Idempotent {
		t.Error("unannotated withdraw marked idempotent")
	}
}

func TestUnknownFlickDirectiveIsError(t *testing.T) {
	_, err := Parse("test.idl", `
		interface Acct {
			//flick:idempotnet
			long balance();
		};
	`)
	if err == nil {
		t.Fatal("misspelled //flick: directive parsed silently")
	}
	if !strings.Contains(err.Error(), "unknown //flick: directive") {
		t.Errorf("error = %v, want unknown-directive diagnostic", err)
	}
	if !strings.Contains(err.Error(), "idempotnet") {
		t.Errorf("error = %v, want the offending directive named", err)
	}
}

func TestDanglingFlickPragmaIsError(t *testing.T) {
	_, err := Parse("test.idl", `
		//flick:idempotent

		interface Acct {
			long balance();
		};
	`)
	if err == nil {
		t.Fatal("dangling //flick:idempotent parsed silently")
	}
	if !strings.Contains(err.Error(), "does not precede or trail an operation") {
		t.Errorf("error = %v, want dangling-pragma diagnostic", err)
	}
}

// Ordinary comments mentioning flick must not be mistaken for pragmas.
func TestPlainCommentsAreNotPragmas(t *testing.T) {
	f := mustParse(t, `
		interface Acct {
			// flick: this is prose, not a pragma (note the space)
			long balance();
		};
	`)
	if op := f.LookupInterface("Acct").LookupOp("balance"); op.Idempotent {
		t.Error("prose comment was treated as an annotation")
	}
}

// A preceding and a trailing directive can mark the same operation, as
// test.idl's sum is marked idempotent and borrow.
func TestBorrowPragmaBesideIdempotent(t *testing.T) {
	f := mustParse(t, `
		interface Acct {
			typedef sequence<long> longs;
			//flick:idempotent
			long sum(in longs v); //flick:borrow
			long keep(in longs v);
		};
	`)
	it := f.LookupInterface("Acct")
	if op := it.LookupOp("sum"); op == nil || !op.Idempotent || !op.Borrow {
		t.Errorf("sum = %+v, want idempotent and borrow", op)
	}
	if op := it.LookupOp("keep"); op == nil || op.Borrow || op.Idempotent {
		t.Error("unannotated keep marked")
	}
}
