package backend_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flick"
	"flick/internal/backend"
	"flick/internal/mir"
	"flick/internal/pgen"
	"flick/internal/presc"
	"flick/internal/wire"
	"flick/rt"
)

// corpus presents every shipped IDL the AOI front ends read (the
// directories verify_corpus_test.go walks).
func corpus(t *testing.T) map[string]*presc.File {
	t.Helper()
	out := map[string]*presc.File{}
	for _, dir := range []string{"examples/idl", "internal/teststubs", "internal/typestubs",
		"internal/streamstubs", "internal/zcstubs", "internal/slabstubs"} {
		for _, pat := range []string{"*.idl", "*.x"} {
			files, _ := filepath.Glob(filepath.Join("../..", dir, pat))
			for _, file := range files {
				src, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				af, err := flick.Parse(file, string(src), "auto")
				if err != nil {
					t.Fatal(err)
				}
				pf, err := pgen.GenerateGo(af, presc.Client)
				if err != nil {
					t.Fatal(err)
				}
				out[file] = pf
			}
		}
	}
	if len(out) < 8 {
		t.Fatalf("corpus too small: %d files", len(out))
	}
	return out
}

// TestWord4MatchesRuntime pins the kit's key function to the one the
// generated dispatchers call: a tree built with one and walked with the
// other must agree on every name.
func TestWord4MatchesRuntime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		s, off := string(b), rng.Intn(14)
		if got, want := backend.Word4(s, off), rt.Word4(s, off); got != want {
			t.Fatalf("Word4(%q, %d) = %#x, rt.Word4 = %#x", s, off, got, want)
		}
	}
}

// resolve walks the tree the way a generated dispatcher does: the length
// switch, then one word switch per four bytes.
func resolve(d *backend.Demux, name string) *presc.Stub {
walk:
	for d != nil {
		key := uint32(len(name))
		if d.Off >= 0 {
			key = rt.Word4(name, d.Off)
		}
		for _, arm := range d.Arms {
			if arm.Key == key {
				if arm.Stub != nil {
					return arm.Stub
				}
				d = arm.Next
				continue walk
			}
		}
		return nil
	}
	return nil
}

// leaves counts the stubs a tree reaches.
func leaves(d *backend.Demux) int {
	n := 0
	for _, arm := range d.Arms {
		if arm.Stub != nil {
			n++
		} else {
			n += leaves(arm.Next)
		}
	}
	return n
}

// TestDemuxResolvesEveryOperation: over every interface of the corpus,
// each operation name reaches its own stub and near-miss names (a
// truncation, an extension, a changed byte at every position) reach
// nothing — test.idl and zoo.x hold the names that share prefixes and
// lengths.
func TestDemuxResolvesEveryOperation(t *testing.T) {
	ops, shared := 0, 0
	for file, pf := range corpus(t) {
		for _, iface := range backend.Interfaces(pf) {
			d := backend.NewDemux(iface.Stubs)
			if d.Off != -1 {
				t.Fatalf("%s %s: root switches on offset %d, want the length", file, iface.Name, d.Off)
			}
			names := map[string]bool{}
			for _, s := range iface.Stubs {
				names[s.OpName] = true
			}
			for i, arm := range d.Arms {
				if i > 0 && d.Arms[i-1].Key >= arm.Key {
					t.Errorf("%s %s: length arms out of order", file, iface.Name)
				}
				if arm.Next != nil && leaves(arm.Next) > 1 {
					shared++
				}
			}
			if n := leaves(d); n != len(iface.Stubs) {
				t.Errorf("%s %s: %d leaves for %d operations", file, iface.Name, n, len(iface.Stubs))
			}
			for _, s := range iface.Stubs {
				ops++
				if got := resolve(d, s.OpName); got != s {
					t.Errorf("%s %s: %q resolves to %v", file, iface.Name, s.OpName, got)
				}
				misses := []string{s.OpName[:len(s.OpName)-1], s.OpName + "x"}
				for i := range s.OpName {
					b := []byte(s.OpName)
					b[i] ^= 0x20
					misses = append(misses, string(b))
				}
				for _, miss := range misses {
					if got := resolve(d, miss); got != nil && !names[miss] {
						t.Errorf("%s %s: %q, not an operation, resolves to %s", file, iface.Name, miss, got.OpName)
					}
				}
			}
		}
	}
	if ops < 30 || shared == 0 {
		t.Fatalf("walked %d operations, %d lengths shared by several names: the corpus no longer exercises the tree", ops, shared)
	}
}

// TestSubsEmitOncePerDirection: however many programs of a run call a
// recursive type's routine, it is scheduled once per direction.
func TestSubsEmitOncePerDirection(t *testing.T) {
	format, _ := wire.ByName("xdr")
	low := backend.Lowering{Format: format, Opts: mir.AllOptimizations()}
	var zoo *presc.File
	for file, pf := range corpus(t) {
		if strings.HasSuffix(file, "zoo.x") {
			zoo = pf
		}
	}
	subs := backend.Subs{}
	emitted, called := map[string]int{}, map[string]int{}
	for _, s := range zoo.Stubs {
		for _, reply := range []bool{false, true} {
			if reply && s.Oneway {
				continue
			}
			for _, dir := range []mir.Dir{mir.Marshal, mir.Unmarshal} {
				prog, err := low.Program(s.Name, dir, backend.Roots(s, reply))
				if err != nil {
					t.Fatal(err)
				}
				name := func(sub *mir.Sub) string { return dir.String() + " " + sub.Name }
				for _, sub := range prog.Subs {
					called[name(sub)]++
				}
				err = subs.Each(prog, name, func(n string, sub *mir.Sub) error {
					emitted[n]++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	repeated := 0
	for name, n := range called {
		if emitted[name] != 1 {
			t.Errorf("%s: called by %d programs, emitted %d times", name, n, emitted[name])
		}
		if n > 1 {
			repeated++
		}
	}
	if len(emitted) != len(called) || repeated == 0 {
		t.Fatalf("emitted %d routines for %d called, %d of them shared: zoo.x no longer exercises the schedule",
			len(emitted), len(called), repeated)
	}
	for _, dir := range []string{"marshal ", "unmarshal "} {
		n := 0
		for name := range emitted {
			if strings.HasPrefix(name, dir) {
				n++
			}
		}
		if n == 0 {
			t.Errorf("no %sroutine emitted", dir)
		}
	}
}
