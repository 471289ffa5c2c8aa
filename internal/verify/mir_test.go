package verify

import (
	"testing"

	"flick/internal/mir"
	"flick/internal/wire"
)

func xdr() wire.Format {
	f, ok := wire.ByName("xdr")
	if !ok {
		panic("no xdr format")
	}
	return f
}

func u64p(v uint64) *uint64 { return &v }

// prog wraps ops in a marshal program pre-classified as the ops imply;
// tests that probe classification build Programs directly.
func prog(dir mir.Dir, class mir.SizeClass, fixed int, ops ...mir.Op) *mir.Program {
	return &mir.Program{Dir: dir, Ops: ops, Class: class, FixedBytes: fixed}
}

func TestMIRAcceptsHealthyProgram(t *testing.T) {
	// Ensure(8); u32 item; u32 item — the canonical grouped run.
	p := prog(mir.Marshal, mir.FixedSize, 8,
		&mir.Ensure{Bytes: 8},
		&mir.Item{Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "a"}},
		&mir.Item{Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "b"}},
	)
	var c Counters
	if fs := MIR(p, xdr(), "t", On, &c); len(fs) != 0 {
		t.Fatalf("healthy program rejected:\n%s", fs.Error())
	}
	if c.MirPrograms != 1 {
		t.Fatalf("MirPrograms = %d, want 1", c.MirPrograms)
	}
}

func TestMIRModeOffSkips(t *testing.T) {
	// A blatantly corrupt program passes when verification is off.
	p := prog(mir.Marshal, mir.FixedSize, 4,
		&mir.Item{Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "a"}},
	)
	// (no Ensure: would fail under On)
	p.FixedBytes = 4
	if fs := MIR(p, xdr(), "t", Off, nil); fs != nil {
		t.Fatalf("Off mode produced findings:\n%s", fs.Error())
	}
}

func TestMIRMissingEnsure(t *testing.T) {
	p := prog(mir.Marshal, mir.FixedSize, 8,
		&mir.Ensure{Bytes: 4},
		&mir.Item{Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "a"}},
		&mir.Item{Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "b"}},
	)
	fs := MIR(p, xdr(), "t", On, nil)
	wantFinding(t, fs, "MIR", "t.ops[2]", "not dominated by an ensure-space check")
}

func TestMIRChunkNotCovered(t *testing.T) {
	p := prog(mir.Marshal, mir.FixedSize, 8,
		&mir.Chunk{Size: 8, Items: []mir.ChunkItem{
			{Off: 0, Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "a"}},
			{Off: 4, Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "b"}},
		}},
	)
	fs := MIR(p, xdr(), "t", On, nil)
	wantFinding(t, fs, "MIR", "t.ops[0]", "chunk of 8 bytes not dominated by an ensure-space check")
}

func TestMIRChunkOutOfBounds(t *testing.T) {
	p := prog(mir.Marshal, mir.FixedSize, 8,
		&mir.Ensure{Bytes: 8},
		&mir.Chunk{Size: 8, Items: []mir.ChunkItem{
			{Off: 0, Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "a"}},
			{Off: 8, Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "b"}},
		}},
	)
	fs := MIR(p, xdr(), "t", On, nil)
	wantFinding(t, fs, "MIR", "items[1]", "chunk item [8,12) outside chunk of 8 bytes")
}

func TestMIRChunkGap(t *testing.T) {
	p := prog(mir.Marshal, mir.FixedSize, 12,
		&mir.Ensure{Bytes: 12},
		&mir.Chunk{Size: 12, Items: []mir.ChunkItem{
			{Off: 0, Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "a"}},
			{Off: 8, Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "b"}},
		}},
	)
	fs := MIR(p, xdr(), "t", On, nil)
	wantFinding(t, fs, "MIR", "chunk item at offset 8, expected 4")
}

func TestMIRChunkOverlapStrict(t *testing.T) {
	// Contiguity already rejects overlaps; strict mode names the pair
	// explicitly even when offsets go backwards.
	p := prog(mir.Marshal, mir.FixedSize, 8,
		&mir.Ensure{Bytes: 8},
		&mir.Chunk{Size: 8, Items: []mir.ChunkItem{
			{Off: 0, Atom: wire.U64, Wire: 8, Val: &mir.Param{Name: "a"}},
			{Off: 4, Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "b"}},
		}},
	)
	fs := MIR(p, xdr(), "t", Strict, nil)
	wantFinding(t, fs, "MIR", "chunk item [4,8) overlaps item 0 [0,8)")
}

func TestMIRChunkMisaligned(t *testing.T) {
	// Under CDR (natural alignment), a u64 at offset 4 is misaligned.
	cdr, _ := wire.ByName("cdr")
	p := prog(mir.Marshal, mir.FixedSize, 12,
		&mir.Ensure{Bytes: 12},
		&mir.Chunk{Size: 12, Items: []mir.ChunkItem{
			{Off: 0, Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "a"}},
			{Off: 4, Atom: wire.U64, Wire: 8, Val: &mir.Param{Name: "b"}},
		}},
	)
	fs := MIR(p, cdr, "t", On, nil)
	wantFinding(t, fs, "MIR", "offset 4 violates 8-byte alignment")
}

func TestMIRChunkSizeMismatch(t *testing.T) {
	p := prog(mir.Marshal, mir.FixedSize, 12,
		&mir.Ensure{Bytes: 12},
		&mir.Chunk{Size: 12, Items: []mir.ChunkItem{
			{Off: 0, Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "a"}},
			{Off: 4, Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "b"}},
		}},
	)
	fs := MIR(p, xdr(), "t", On, nil)
	wantFinding(t, fs, "MIR", "chunk claims 12 bytes but items cover 8")
}

func TestMIRChunkItemValAndConst(t *testing.T) {
	p := prog(mir.Marshal, mir.FixedSize, 8,
		&mir.Ensure{Bytes: 8},
		&mir.Chunk{Size: 8, Items: []mir.ChunkItem{
			{Off: 0, Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "a"}, Const: u64p(7)},
			{Off: 4, Atom: wire.U32, Wire: 4},
		}},
	)
	fs := MIR(p, xdr(), "t", On, nil)
	wantFinding(t, fs, "MIR", "items[0]", "both a value and a constant")
	wantFinding(t, fs, "MIR", "items[1]", "neither a value nor a constant")
}

func TestMIRBulkNonIdentical(t *testing.T) {
	// A bulk claiming 2-byte elements under XDR (4-byte array elements
	// for u16) is not byte-identical.
	p := prog(mir.Marshal, mir.FixedSize, 8,
		&mir.Ensure{Bytes: 8},
		&mir.Bulk{Val: &mir.Param{Name: "a"}, Atom: wire.U16, ElemWire: 2, Count: 4},
	)
	fs := MIR(p, xdr(), "t", On, nil)
	wantFinding(t, fs, "MIR", "uint atom encoded as 2 bytes, format wants 4")
}

func TestMIRDynamicBulkWithoutEnsureDyn(t *testing.T) {
	p := prog(mir.Marshal, mir.UnboundedSize, 0,
		&mir.Bulk{Val: &mir.Param{Name: "s"}, Atom: wire.Char, ElemWire: 1, Count: -1},
	)
	fs := MIR(p, xdr(), "t", On, nil)
	wantFinding(t, fs, "MIR", "dynamic bulk transfer of s not dominated by an ensure-space check")
}

func TestMIRDynamicBulkWithEnsureDyn(t *testing.T) {
	val := &mir.Param{Name: "s"}
	p := prog(mir.Marshal, mir.UnboundedSize, 0,
		&mir.EnsureDyn{Base: 4, PerElem: 1, Count: val},
		&mir.LenItem{Wire: 4, Val: &mir.Len{Base: val}},
		&mir.Bulk{Val: val, Atom: wire.Char, ElemWire: 1, Count: -1},
	)
	if fs := MIR(p, xdr(), "t", On, nil); len(fs) != 0 {
		t.Fatalf("EnsureDyn-dominated bulk rejected:\n%s", fs.Error())
	}
}

// Space checks do not add up: each guarantees an amount at the point it
// runs. GrowDyn(n) followed by Grow(4) tests max(n, 4) bytes; a string
// and a scalar written under the pair overrun by the smaller of the two
// (the Rec shape of internal/slabstubs, which panicked at 57-60 bytes).
func TestMIRChecksDoNotAddUp(t *testing.T) {
	val := &mir.Param{Name: "s"}
	tail := []mir.Op{
		&mir.Bulk{Val: val, Atom: wire.Char, ElemWire: 1, Count: -1},
		&mir.Item{Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "x"}},
	}
	split := prog(mir.Marshal, mir.UnboundedSize, 0, append([]mir.Op{
		&mir.EnsureDyn{Base: 0, PerElem: 1, Count: val},
		&mir.Ensure{Bytes: 4},
	}, tail...)...)
	wantFinding(t, MIR(split, xdr(), "t", On, nil), "MIR", "dynamic bulk transfer of s not dominated by an ensure-space check")

	// The other order forfeits what the static check had left.
	stale := prog(mir.Marshal, mir.UnboundedSize, 0, append([]mir.Op{
		&mir.Ensure{Bytes: 4},
		&mir.EnsureDyn{Base: 0, PerElem: 1, Count: val},
	}, tail...)...)
	wantFinding(t, MIR(stale, xdr(), "t", On, nil), "MIR", "t.ops[3]", "4-byte transfer not dominated by an ensure-space check")

	// One check for the sum is what covers both.
	folded := prog(mir.Marshal, mir.UnboundedSize, 0, append([]mir.Op{
		&mir.EnsureDyn{Base: 4, PerElem: 1, Count: val},
	}, tail...)...)
	if fs := MIR(folded, xdr(), "t", On, nil); len(fs) != 0 {
		t.Fatalf("folded check rejected:\n%s", fs.Error())
	}

	// And two static checks guarantee the larger, not the total.
	twice := prog(mir.Marshal, mir.FixedSize, 8,
		&mir.Ensure{Bytes: 4},
		&mir.Ensure{Bytes: 4},
		&mir.Item{Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "a"}},
		&mir.Item{Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "b"}},
	)
	wantFinding(t, MIR(twice, xdr(), "t", On, nil), "MIR", "t.ops[3]", "not dominated by an ensure-space check")
}

func TestMIRClassifyFixedWithDynamicOps(t *testing.T) {
	val := &mir.Param{Name: "s"}
	p := prog(mir.Marshal, mir.FixedSize, 8,
		&mir.EnsureDyn{Base: 4, PerElem: 1, Count: val},
		&mir.LenItem{Wire: 4, Val: &mir.Len{Base: val}},
		&mir.Bulk{Val: val, Atom: wire.Char, ElemWire: 1, Count: -1},
	)
	fs := MIR(p, xdr(), "t", On, nil)
	wantFinding(t, fs, "MIR", "classified fixed-size but contains dynamic ops")
}

func TestMIRClassifyWrongFixedBytes(t *testing.T) {
	p := prog(mir.Marshal, mir.FixedSize, 12,
		&mir.Ensure{Bytes: 8},
		&mir.Item{Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "a"}},
		&mir.Item{Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "b"}},
	)
	fs := MIR(p, xdr(), "t", On, nil)
	wantFinding(t, fs, "MIR", "classified as 12 fixed bytes but ops produce 8")
}

func TestMIRMisalignedItem(t *testing.T) {
	// Under CDR, a u32 at offset 2 violates natural alignment.
	cdr, _ := wire.ByName("cdr")
	p := prog(mir.Marshal, mir.FixedSize, 6,
		&mir.Ensure{Bytes: 6},
		&mir.Item{Atom: wire.U16, Wire: 2, Val: &mir.Param{Name: "a"}},
		&mir.Item{Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "b"}},
	)
	fs := MIR(p, cdr, "t", On, nil)
	wantFinding(t, fs, "MIR", "t.ops[2]", "uint atom at offset 2 violates 4-byte alignment")
}

func TestMIRAbsorbedLoopBudget(t *testing.T) {
	// A fixed-count loop whose per-iteration checks were hoisted: the
	// enclosing Ensure must cover count × per-iteration bytes.
	body := []mir.Op{&mir.Item{Atom: wire.U32, Wire: 4, Val: &mir.Elem{Var: "v"}}}
	ok := prog(mir.Marshal, mir.FixedSize, 16,
		&mir.Ensure{Bytes: 16},
		&mir.Loop{Over: &mir.Param{Name: "a"}, Var: "v", Count: 4, Body: body},
	)
	if fs := MIR(ok, xdr(), "t", On, nil); len(fs) != 0 {
		t.Fatalf("covered loop rejected:\n%s", fs.Error())
	}
	short := prog(mir.Marshal, mir.FixedSize, 16,
		&mir.Ensure{Bytes: 8},
		&mir.Loop{Over: &mir.Param{Name: "a"}, Var: "v", Count: 4, Body: body},
	)
	fs := MIR(short, xdr(), "t", On, nil)
	wantFinding(t, fs, "MIR", "loop body needs 4 bytes/iteration with no dominating ensure-space check")
}

func TestMIRCountersChunks(t *testing.T) {
	var c Counters
	p := prog(mir.Marshal, mir.FixedSize, 8,
		&mir.Ensure{Bytes: 8},
		&mir.Chunk{Size: 8, Items: []mir.ChunkItem{
			{Off: 0, Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "a"}},
			{Off: 4, Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "b"}},
		}},
	)
	if fs := MIR(p, xdr(), "t", On, &c); len(fs) != 0 {
		t.Fatalf("unexpected findings:\n%s", fs.Error())
	}
	if c.MirChunks != 1 {
		t.Fatalf("MirChunks = %d, want 1", c.MirChunks)
	}
}

func TestMIRAbsorbedSwitchBudget(t *testing.T) {
	// An absorbed switch (the zoo.x shape): the enclosing Ensure hoists
	// the widest arm's cost, arms carry no checks of their own, and the
	// ops after the switch keep drawing on the remaining budget.
	sw := func() *mir.Switch {
		return &mir.Switch{
			On: &mir.Param{Name: "d"}, Atom: wire.U32, Wire: 4,
			Cases: []mir.SwitchCase{
				{Values: []int64{1}, Body: []mir.Op{
					&mir.Item{Atom: wire.U64, Wire: 8, Val: &mir.Param{Name: "big"}},
				}},
				{Values: []int64{2}, Body: nil}, // void arm
			},
			HasDefault: true,
			Default: []mir.Op{
				&mir.Item{Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "other"}},
			},
		}
	}
	// 4 (discriminator) + 8 (widest arm) + 4 (trailing item) = 16.
	ok := prog(mir.Marshal, mir.UnboundedSize, 0,
		&mir.Ensure{Bytes: 16},
		sw(),
		&mir.Item{Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "tail"}},
	)
	if fs := MIR(ok, xdr(), "t", On, nil); len(fs) != 0 {
		t.Fatalf("covered switch rejected:\n%s", fs.Error())
	}
	// Ensure only covers the discriminator and widest arm: the trailing
	// item is uncovered.
	short := prog(mir.Marshal, mir.UnboundedSize, 0,
		&mir.Ensure{Bytes: 12},
		sw(),
		&mir.Item{Atom: wire.U32, Wire: 4, Val: &mir.Param{Name: "tail"}},
	)
	fs := MIR(short, xdr(), "t", On, nil)
	wantFinding(t, fs, "MIR", "t.ops[2]", "not dominated by an ensure-space check")
}

func TestMIRAbsorbedSwitchUnderfunded(t *testing.T) {
	// The hoisted check is smaller than the widest arm: both the arm's
	// own replay and the shared-budget accounting must flag it.
	p := prog(mir.Marshal, mir.UnboundedSize, 0,
		&mir.Ensure{Bytes: 8},
		&mir.Switch{
			On: &mir.Param{Name: "d"}, Atom: wire.U32, Wire: 4,
			Cases: []mir.SwitchCase{
				{Values: []int64{1}, Body: []mir.Op{
					&mir.Item{Atom: wire.U64, Wire: 8, Val: &mir.Param{Name: "big"}},
				}},
			},
		},
	)
	fs := MIR(p, xdr(), "t", On, nil)
	wantFinding(t, fs, "MIR", "t.ops[1]", "absorbed switch needs 8 bytes")
	wantFinding(t, fs, "MIR", "t.ops[1].cases[0].ops[0]", "not dominated by an ensure-space check")
}

// TestMIRInflatedCountGuard corrupts the per-element minimum a length
// item hands the decoder: a loop body that provably transfers 8 bytes
// per element guarded as if it transferred 12 would make the decoder
// refuse well-formed messages, so the verifier must refuse the program.
func TestMIRInflatedCountGuard(t *testing.T) {
	v := &mir.Param{Name: "v"}
	build := func(elemMin int) *mir.Program {
		return prog(mir.Unmarshal, mir.UnboundedSize, 0,
			&mir.Ensure{Bytes: 4},
			&mir.LenItem{Wire: 4, Val: v, ElemMin: elemMin},
			&mir.Loop{Over: v, Var: "e1", Count: -1, Body: []mir.Op{
				&mir.Ensure{Bytes: 8},
				&mir.Item{Atom: wire.U32, Wire: 4, Val: &mir.Field{Base: &mir.Elem{Var: "e1"}, Name: "A"}},
				&mir.Item{Atom: wire.U32, Wire: 4, Val: &mir.Field{Base: &mir.Elem{Var: "e1"}, Name: "B"}},
			}},
		)
	}
	if fs := MIR(build(8), xdr(), "t", On, nil); len(fs) != 0 {
		t.Fatalf("exact count guard rejected:\n%s", fs.Error())
	}
	fs := MIR(build(12), xdr(), "t", On, nil)
	wantFinding(t, fs, "MIR", "t.ops[1]", "count guard assumes 12 bytes/element of v, only 8 provable")
}
