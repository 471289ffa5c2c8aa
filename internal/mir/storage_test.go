package mir

import (
	"fmt"
	"testing"

	"flick/internal/frontend/corbaidl"
	"flick/internal/pgen"
	"flick/internal/presc"
	"flick/internal/wire"
)

// planFor lowers the unmarshal program of `void f(in <params>)` over the
// given declarations and plans its storage.
func planFor(t *testing.T, decls, params string, f wire.Format, opts Options) (*Program, Stats) {
	t.Helper()
	src := fmt.Sprintf("%s\ninterface I { void f(%s); };", decls, params)
	file, err := corbaidl.Parse("t.idl", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pf, err := pgen.GenerateGo(file, presc.Client)
	if err != nil {
		t.Fatalf("pgen: %v", err)
	}
	var roots []Root
	for _, p := range pf.Stubs[0].Params {
		roots = append(roots, Root{Name: p.Name, Pres: p.Request})
	}
	prog, err := Lower(Unmarshal, roots, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	PlanStorage(prog, nil, &st)
	return prog, st
}

const dirDecls = `
	struct stat_info { long fields[30]; char tag[16]; };
	struct dir_entry { string<255> name; stat_info info; };
	struct doc { string title; string author; sequence<octet> body; long rev; };
`

func TestPlanStorageLoopOfStructs(t *testing.T) {
	// The benchmark's reply shape: per entry a 4-byte length word and
	// 136 fixed bytes are not name bytes; a trailing long follows.
	prog, st := planFor(t, dirDecls, "in sequence<dir_entry> v, in long total", wire.XDR{}, AllOptimizations())
	plan := prog.Slab
	if plan == nil {
		t.Fatalf("no plan:\n%s", dump(prog.Ops))
	}
	loop, ok := plan.At.(*Loop)
	if !ok || plan.Count == nil || plan.Count.String() != "v" {
		t.Fatalf("provisioned at %T over %v, want the loop over v", plan.At, plan.Count)
	}
	if plan.PerElem != 140 || plan.Tail != 4 {
		t.Errorf("PerElem=%d Tail=%d, want 140 and 4", plan.PerElem, plan.Tail)
	}
	var name *Bulk
	for _, op := range loop.Body {
		if b, ok := op.(*Bulk); ok && b.Count < 0 {
			name = b
		}
	}
	if name == nil || !name.Slab {
		t.Errorf("the name bulk is not a slab site:\n%s", dump(prog.Ops))
	}
	if st.SlabSites != 1 || st.SlabFallbackSites() != 0 {
		t.Errorf("stats %+v", st)
	}
	// The count guard is the same per-iteration minimum.
	li := prog.Ops[1].(*LenItem)
	if li.ElemMin != 140 {
		t.Errorf("outer count guard %d, want 140:\n%s", li.ElemMin, dump(prog.Ops))
	}
}

func TestPlanStorageTopLevelValues(t *testing.T) {
	// Two strings and a byte sequence, no loop: provisioned in front of
	// the static run that leads to the first one, all three carved (the
	// byte sequence at its length item, where its make would be).
	prog, st := planFor(t, dirDecls, "in doc v", wire.XDR{}, AllOptimizations())
	plan := prog.Slab
	if plan == nil {
		t.Fatalf("no plan:\n%s", dump(prog.Ops))
	}
	if plan.At != prog.Ops[0] || plan.Count != nil || plan.PerElem != 0 || plan.Tail != 16 {
		t.Errorf("plan %+v, want At=ops[0] Tail=16:\n%s", plan, dump(prog.Ops))
	}
	if st.SlabSites != 3 {
		t.Errorf("SlabSites = %d, want 3", st.SlabSites)
	}
	lens := 0
	for _, op := range prog.Ops {
		if li, ok := op.(*LenItem); ok && li.Slab {
			lens++
		}
	}
	if lens != 3 {
		t.Errorf("%d length items marked, want 3 (title, author, body):\n%s", lens, dump(prog.Ops))
	}
	// CDR counts the string NULs as fixed bytes too.
	prog, _ = planFor(t, dirDecls, "in doc v", wire.CDR{Little: true}, AllOptimizations())
	if prog.Slab == nil || prog.Slab.Tail != 18 {
		t.Errorf("cdr plan %+v, want Tail=18", prog.Slab)
	}
}

func TestPlanStorageFallbacks(t *testing.T) {
	for _, tc := range []struct {
		name, params      string
		lone, vari, recur int
	}{
		{"lone string", "in string key", 1, 0, 0},
		{"lone string after scalars", "in long a, in string key, in long b", 1, 0, 0},
		{"sequence<long> shares the region", "in string label, in sequence<long> counts, in string note", 1, 1, 0},
		{"a later loop's count is unknown", "in sequence<string> a, in sequence<string> b", 0, 1, 0},
		{"nested loops", "in sequence<sequence<string> > v", 0, 1, 0},
	} {
		prog, st := planFor(t, dirDecls, tc.params, wire.XDR{}, AllOptimizations())
		if st.SlabFallbackLone != tc.lone || st.SlabFallbackVariable != tc.vari || st.SlabFallbackRecursive != tc.recur {
			t.Errorf("%s: fallback lone/variable/recursive = %d/%d/%d, want %d/%d/%d\n%s", tc.name,
				st.SlabFallbackLone, st.SlabFallbackVariable, st.SlabFallbackRecursive,
				tc.lone, tc.vari, tc.recur, dump(prog.Ops))
		}
	}
	// "a later loop": the first loop cannot be priced, the second can —
	// it gets the plan.
	prog, st := planFor(t, dirDecls, "in sequence<string> a, in sequence<string> b", wire.XDR{}, AllOptimizations())
	if prog.Slab == nil || prog.Slab.Count.String() != "b" || st.SlabSites != 1 {
		t.Errorf("plan %+v stats %+v, want a plan over b", prog.Slab, st)
	}
}

func TestPlanStorageRecursiveSub(t *testing.T) {
	// struct tree { string name; tree kids<>; }: the root calls a
	// subprogram that calls itself. Nothing about its size is static,
	// so no slab — but its name site is marked like any subprogram's.
	name := &Field{Base: &Param{Name: "v"}, Name: "Name"}
	kids := &Field{Base: &Param{Name: "v"}, Name: "Kids"}
	nameBulk := &Bulk{Val: name, Atom: wire.Char, ElemWire: 1, Count: -1}
	prog := &Program{
		Dir: Unmarshal,
		Ops: []Op{&CallSub{Sub: 0, Arg: &Param{Name: "v"}}},
		Subs: []*Sub{{Name: "tree", Ops: []Op{
			&Ensure{Bytes: 4}, &LenItem{Wire: 4, Val: name},
			&EnsureDyn{PerElem: 1, Count: name}, nameBulk,
			&Align{N: 4},
			&Ensure{Bytes: 4}, &LenItem{Wire: 4, Val: kids},
			&Loop{Over: kids, Var: "e1", Count: -1, Body: []Op{&CallSub{Sub: 0, Arg: &Elem{Var: "e1"}}}},
		}}},
	}
	var st Stats
	PlanStorage(prog, nil, &st)
	if prog.Slab != nil || st.SlabFallbackRecursive == 0 || st.SlabSites != 0 {
		t.Errorf("plan %+v stats %+v, want no plan and a recursive-sub fallback", prog.Slab, st)
	}
	if !nameBulk.Slab {
		t.Error("subprogram site not marked")
	}
	// The count guard on kids is still a sound lower bound: one tree is
	// at least its two length words.
	annotateElemMins(prog)
	if li := prog.Subs[0].Ops[6].(*LenItem); li.ElemMin != 8 {
		t.Errorf("kids count guard = %d, want 8", li.ElemMin)
	}
}

func TestPlanStorageSkipsForeignStorage(t *testing.T) {
	// Under -zerocopy the byte sequence is an arena view: not a site,
	// and its bytes must not inflate the slab — name is then a lone
	// string and nothing is planned (the blob_put_zc request).
	src := `interface I { void f(in string name, in sequence<octet> data); };`
	file, err := corbaidl.Parse("t.idl", src)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := pgen.GenerateGo(file, presc.Client)
	if err != nil {
		t.Fatal(err)
	}
	var roots []Root
	for _, p := range pf.Stubs[0].Params {
		roots = append(roots, Root{Name: p.Name, Pres: p.Request})
	}
	lower := func() *Program {
		prog, err := Lower(Unmarshal, roots, wire.XDR{}, AllOptimizations())
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	prog := lower()
	PlanStorage(prog, nil, nil)
	if prog.Slab == nil {
		t.Fatalf("copying decode: no plan:\n%s", dump(prog.Ops))
	}
	prog = lower()
	var st Stats
	PlanStorage(prog, func(b *Bulk) bool { return b.Val.String() == "data" }, &st)
	if prog.Slab != nil || st.SlabSites != 0 || st.SlabFallbackSites() != 1 {
		t.Errorf("aliasing decode: plan %+v stats %+v, want none and one fallback", prog.Slab, st)
	}
}

func TestPlanStorageEveryOptionSubset(t *testing.T) {
	// Whatever the optimizer left of the program, the entry loop prices
	// at the same 140 bytes when it is priced at all, and the count
	// guard never moves. Without inlining the sequence is decoded by a
	// subprogram the root cannot see into: no plan, sites still marked
	// (a subprogram carves when its caller provisioned).
	for mask := 0; mask < 16; mask++ {
		opts := AllOptimizations()
		opts.GroupEnsures = mask&1 == 0
		opts.Chunk = mask&2 == 0
		opts.Memcpy = mask&4 == 0
		opts.Inline = mask&8 == 0
		prog, _ := planFor(t, dirDecls, "in sequence<dir_entry> v", wire.XDR{}, opts)
		if opts.Inline {
			if prog.Slab == nil || prog.Slab.PerElem != 140 {
				t.Errorf("mask %x: plan %+v, want PerElem 140:\n%s", mask, prog.Slab, dump(prog.Ops))
			}
			continue
		}
		if prog.Slab != nil {
			t.Errorf("mask %x: planned across an out-of-line sequence", mask)
		}
		marked := 0
		for _, s := range prog.Subs {
			for _, op := range s.Ops {
				switch op := op.(type) {
				case *Bulk:
					if op.Slab {
						marked++
					}
				case *Loop:
					if op.Slab {
						marked++
					}
				}
			}
		}
		if marked != 1 {
			t.Errorf("mask %x: %d subprogram sites marked, want 1", mask, marked)
		}
	}
}
