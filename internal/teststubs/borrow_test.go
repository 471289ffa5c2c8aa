package teststubs

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Tests for sum's //flick:borrow presentation: the skeleton decodes v
// into storage its decoder lends again once the work function returns.

// keepingBench breaks the borrow contract on purpose: its Sum keeps its
// argument, so a test can watch what becomes of the storage afterwards.
// exit selects how the work function ends.
type keepingBench struct {
	benchImpl
	exit string
	kept []int32
}

func (b *keepingBench) Sum(v []int32) (int32, error) {
	b.kept = v
	switch b.exit {
	case "error":
		return 0, errors.New("work failed")
	case "panic":
		panic("work panicked")
	case "exception":
		return 0, &BenchBadSize{Wanted: 1}
	}
	return int32(len(v)), nil
}

// TestSumCallAllocs: a generated Sum call over the in-process pipe
// allocates nothing once warm. The client's request header stays on its
// stack and the server decodes v into lent storage.
func TestSumCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	c := NewBenchXDRClient(startPipeServerXDR(t, &benchImpl{}))
	v := make([]int32, 16)
	for i := range v {
		v[i] = int32(i)
	}
	avg := testing.AllocsPerRun(300, func() {
		if ret, err := c.Sum(v); err != nil || ret != 120 {
			t.Fatalf("Sum = %d, %v", ret, err)
		}
	})
	if avg != 0 {
		t.Errorf("a Sum call allocates %.2f/op, want 0", avg)
	}
}

// TestFailedSumStorageIsNotLentAgain: a work function that returns an
// error, raises the declared exception or panics never reaches the
// skeleton's EndBorrow, so the storage it was handed is dropped rather
// than lent to a later request — a handler that kept it still reads its
// own argument.
func TestFailedSumStorageIsNotLentAgain(t *testing.T) {
	for _, exit := range []string{"error", "exception", "panic"} {
		t.Run(exit, func(t *testing.T) {
			impl := &keepingBench{exit: exit}
			c := NewBenchXDRClient(startPipeServerXDR(t, impl))
			want := []int32{7, 7, 7, 7}
			if _, err := c.Sum(want); err == nil {
				t.Fatal("the failing Sum succeeded")
			}
			kept := impl.kept
			impl.exit = ""
			for i := int32(1); i <= 20; i++ {
				if _, err := c.Sum([]int32{i, i, i, i}); err != nil {
					t.Fatal(err)
				}
				if &impl.kept[0] == &kept[0] {
					t.Fatalf("request %d was decoded into the failed call's storage", i)
				}
			}
			if !slices.Equal(kept, want) {
				t.Errorf("the failed call's argument reads %v, want %v", kept, want)
			}
		})
	}
}

// TestOnlyRequestUnmarshalsBorrow: in every committed stub file, lent
// storage is taken only by a request unmarshal, which only a server
// skeleton calls — reply decoding on the client, where no EndBorrow
// ends a borrow, never hands it out.
func TestOnlyRequestUnmarshalsBorrow(t *testing.T) {
	files, err := filepath.Glob("stubs_*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	n := 0
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(x ast.Node) bool {
				ix, ok := x.(*ast.IndexExpr)
				if !ok {
					return true
				}
				if sel, ok := ix.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Borrow" {
					n++
					if !strings.HasPrefix(fn.Name.Name, "Unmarshal") || !strings.HasSuffix(fn.Name.Name, "Request") {
						t.Errorf("%s: %s borrows", fset.Position(ix.Pos()), fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	if n == 0 {
		t.Fatal("no committed stub borrows: the //flick:borrow on sum has no effect")
	}
}
