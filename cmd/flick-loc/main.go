// Command flick-loc regenerates Table 1 of the paper: code reuse within
// the Flick compiler. It counts substantive source lines (non-blank,
// non-comment) in each shared base library and in each specialized
// component derived from it, and prints the fraction of code unique to
// the component — the paper's argument that Flick's compiler-kit
// structure concentrates work in reusable libraries.
//
// Run from the repository root: go run ./cmd/flick-loc
package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

type component struct {
	phase string
	name  string
	paths []string
	// base marks the phase's shared library row.
	base bool
	// ceiling, when positive, is the most lines the component may have:
	// the ratchet that keeps a specialized component from regrowing
	// (ROADMAP 6d). Lower it when the component shrinks.
	ceiling int
}

// The runtime is what generated stubs link against, not part of the
// compiler: it gets a row of its own, outside every phase's arithmetic.
const runtimePhase = "Runtime"

var components = []component{
	// Front-end phase.
	{phase: "Front End", name: "Base Library (lexer/parser kit + AOI)", paths: []string{"internal/frontend/idllex", "internal/aoi"}, base: true},
	{phase: "Front End", name: "CORBA IDL", paths: []string{"internal/frontend/corbaidl"}},
	{phase: "Front End", name: "ONC RPC IDL", paths: []string{"internal/frontend/oncrpc"}},
	{phase: "Front End", name: "MIG", paths: []string{"internal/frontend/mig"}},
	// Presentation phase.
	{phase: "Pres. Gen.", name: "Base Library (MINT + PRES + PRES-C + AOI→MINT + stub skeleton)", paths: []string{"internal/mint", "internal/pres", "internal/presc", "internal/pgen/mintgen.go", "internal/pgen/stubgen.go", "internal/pgen/names.go"}, base: true},
	{phase: "Pres. Gen.", name: "Go presentation", paths: []string{"internal/pgen/gopres.go"}, ceiling: 417},
	{phase: "Pres. Gen.", name: "C presentations (CORBA + rpcgen + Fluke)", paths: []string{"internal/pgen/cpres.go"}, ceiling: 522},
	// Back-end phase.
	{phase: "Back End", name: "Base Library (mir optimizer + wire formats + verifier + kit)", paths: []string{"internal/mir", "internal/wire", "internal/verify", "internal/backend/kit.go"}, base: true},
	{phase: "Back End", name: "Go emitter (all formats)", paths: []string{"internal/backend/gostub"}, ceiling: 1505},
	{phase: "Back End", name: "C emitter (CAST)", paths: []string{"internal/cast", "internal/backend/cstub"}, ceiling: 1544},
	{phase: "Back End", name: "interpretive marshaler (ILU/ORBeline models)", paths: []string{"internal/interp"}},
	{phase: runtimePhase, name: "rt (what generated stubs link against)", paths: []string{"rt"}},
}

// row is one measured line of the table.
type row struct {
	component
	lines int
	// unique is the share of the component's code that is its own, against
	// its phase's base library; negative where that does not apply.
	unique float64
}

// measure counts every component under root. A component path that does
// not exist is an error: a table of zeros is not a measurement.
func measure(root string) ([]row, error) {
	var rows []row
	baseLines := map[string]int{}
	for _, c := range components {
		r := row{component: c, unique: -1}
		for _, p := range c.paths {
			n, err := countDir(filepath.Join(root, p))
			if err != nil {
				return nil, fmt.Errorf("%s: %w (run from the repository root)", p, err)
			}
			r.lines += n
		}
		if c.base {
			baseLines[c.phase] = r.lines
		} else if b := baseLines[c.phase]; b > 0 {
			r.unique = float64(r.lines) / float64(r.lines+b) * 100
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func main() {
	rows, err := measure(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "flick-loc: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("Table 1: code reuse within the Flick-Go IDL compiler")
	fmt.Println("(substantive Go source lines; percentages = component lines unique vs its phase base library)")
	fmt.Println()
	fmt.Printf("%-12s %-66s %8s %8s\n", "Phase", "Component", "Lines", "Unique%")
	fmt.Println(strings.Repeat("-", 97))
	for _, r := range rows {
		pct := ""
		if r.unique >= 0 {
			pct = fmt.Sprintf("%.1f%%", r.unique)
		}
		fmt.Printf("%-12s %-66s %8d %8s\n", r.phase, r.name, r.lines, pct)
	}
}

// countDir counts substantive lines in the package directory's non-test,
// non-generated Go files; a path ending in .go counts one file.
func countDir(dir string) (int, error) {
	if strings.HasSuffix(dir, ".go") {
		return countFile(dir)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		n, err := countFile(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

func countFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	inBlock := false
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if first {
			first = false
			if strings.Contains(line, "DO NOT EDIT") {
				return 0, nil
			}
		}
		if inBlock {
			if idx := strings.Index(line, "*/"); idx >= 0 {
				line = strings.TrimSpace(line[idx+2:])
				inBlock = false
			} else {
				continue
			}
		}
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "/*") {
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
			continue
		}
		n++
	}
	return n, sc.Err()
}
