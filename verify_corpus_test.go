package flick_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flick"
	"flick/internal/backend/gostub"
	"flick/internal/lint"
	"flick/internal/verify"
)

// corpusIDLs returns every IDL source shipped with the repository: the
// examples plus the exhaustive type-coverage interface used by the
// round-trip tests.
func corpusIDLs(t *testing.T) []string {
	t.Helper()
	var files []string
	// typestubs matters: its type zoo (unions inside sequences, recursion
	// through optionals) regression-tests the verifier's budget model for
	// grouped ensure checks absorbed across switch arms. slabstubs pins
	// the storage-plan shapes (and the `>>` of sequence<string<20>>).
	for _, dir := range []string{"examples/idl", "internal/teststubs", "internal/typestubs",
		"internal/streamstubs", "internal/zcstubs", "internal/slabstubs"} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".idl") || strings.HasSuffix(e.Name(), ".x") ||
				strings.HasSuffix(e.Name(), ".defs") {
				files = append(files, filepath.Join(dir, e.Name()))
			}
		}
	}
	if len(files) < 4 {
		t.Fatalf("corpus too small: %v", files)
	}
	return files
}

// TestVerifyCorpusZeroFindings compiles every shipped IDL under every
// wire format and code style with strict verification: the MINT, PRES-C,
// and MIR verifiers must pass every stage of every pipeline with zero
// findings. This is the "verifiers are on by default and the compiler's
// own output satisfies its own invariants" guarantee.
func TestVerifyCorpusZeroFindings(t *testing.T) {
	// The repo ships no .defs file; cover the MIG pipeline inline.
	type source struct{ file, src string }
	sources := []source{{"bench.defs", `
		subsystem bench 2400;
		routine send_ints(port : mach_port_t; v : array[] of int32_t);
	`}}
	for _, file := range corpusIDLs(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, source{file, string(src)})
	}
	for _, in := range sources {
		file, src := in.file, in.src
		langs := []string{"go", "c"}
		if strings.HasSuffix(file, ".defs") {
			langs = []string{"go"}
		}
		for _, lang := range langs {
			for _, format := range []string{"xdr", "cdr", "cdr-le", "mach3", "fluke"} {
				for _, style := range []string{"flick", "rpcgen", "powerrpc"} {
					stats := &gostub.Stats{}
					_, err := flick.Compile(file, src, flick.Options{
						Lang: lang, Format: format, Style: style,
						Package: "p", EmitRPC: lang == "go",
						Verify: verify.Strict,
						Stats:  stats,
					})
					if err != nil {
						t.Errorf("%s/%s/%s/%s: %v", file, lang, format, style, err)
						continue
					}
					if stats.Verify.Findings != 0 {
						t.Errorf("%s/%s/%s/%s: %d verifier findings", file, lang, format, style,
							stats.Verify.Findings)
					}
					if stats.Verify.MirPrograms == 0 || stats.Verify.PrescStubs == 0 {
						t.Errorf("%s/%s/%s/%s: verifier ran over nothing (%s)",
							file, lang, format, style, stats.Verify.Report())
					}
				}
			}
		}
	}
}

// TestVerifyCorpusZeroCopy re-runs the corpus through the -zerocopy
// pipeline: every alias proof the MIR pass attaches must survive the
// zerocopy verifier's independent re-derivation under strict mode, for
// every wire format, and the corpus must actually exercise the prover
// (at least one region proven alias-safe somewhere).
func TestVerifyCorpusZeroCopy(t *testing.T) {
	totalRegions, totalAliased := 0, 0
	for _, file := range corpusIDLs(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, format := range []string{"xdr", "cdr", "cdr-le", "mach3", "fluke"} {
			stats := &gostub.Stats{}
			_, err := flick.Compile(file, string(src), flick.Options{
				Lang: "go", Format: format, Style: "flick",
				Package: "p", EmitRPC: true,
				ZeroCopy: true,
				Verify:   verify.Strict,
				Stats:    stats,
			})
			if err != nil {
				t.Errorf("%s/%s: %v", file, format, err)
				continue
			}
			if stats.Verify.Findings != 0 {
				t.Errorf("%s/%s: %d verifier findings under -zerocopy", file, format,
					stats.Verify.Findings)
			}
			totalRegions += stats.Verify.ZcRegions
			totalAliased += stats.Verify.ZcAliased
		}
	}
	if totalRegions == 0 || totalAliased == 0 {
		t.Fatalf("zerocopy verifier ran over nothing: regions=%d aliased=%d",
			totalRegions, totalAliased)
	}
}

// TestLintCorpusZeroFindings is the strict lint gate over generated
// code: every corpus IDL compiled with -zerocopy (plain, and with the
// full sync/async/stream surface set) must come out clean under the
// entire analyzer suite — in particular arenalife, since -zerocopy is
// what introduces arena-borrowed views into generated stubs.
func TestLintCorpusZeroFindings(t *testing.T) {
	exports, err := lint.ExportsFor("flick/rt")
	if err != nil {
		t.Fatalf("resolving flick/rt export data: %v", err)
	}
	dir := t.TempDir()
	n := 0
	for _, file := range corpusIDLs(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, surfaces := range []string{"", "sync,async,stream"} {
			if strings.HasSuffix(file, ".defs") && surfaces != "" {
				continue
			}
			code, err := flick.Compile(file, string(src), flick.Options{
				Lang: "go", Format: "xdr", Style: "flick",
				Package: "p", EmitRPC: true,
				Surfaces: surfaces,
				ZeroCopy: true,
			})
			if err != nil {
				t.Errorf("%s (surfaces %q): %v", file, surfaces, err)
				continue
			}
			out := filepath.Join(dir, fmt.Sprintf("gen%d.go", n))
			n++
			if err := os.WriteFile(out, []byte(code), 0o644); err != nil {
				t.Fatal(err)
			}
			pkg, err := lint.TypecheckFiles("gen", []string{out}, exports)
			if err != nil {
				t.Errorf("%s (surfaces %q): typecheck: %v", file, surfaces, err)
				continue
			}
			diags, err := lint.Analyze(pkg, lint.All())
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				t.Errorf("%s (surfaces %q): lint finding in generated code: %s", file, surfaces, d)
			}
		}
	}
	if n == 0 {
		t.Fatal("lint gate ran over nothing")
	}
}

// TestVerifyOffSkipsChecks confirms -noverify plumbing: counters stay
// zero when verification is off.
func TestVerifyOffSkipsChecks(t *testing.T) {
	stats := &gostub.Stats{}
	_, err := flick.Compile("m.idl", mailCorba, flick.Options{
		Package: "p", Verify: verify.Off, Stats: stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Verify.MirPrograms != 0 || stats.Verify.PrescStubs != 0 {
		t.Fatalf("verification ran despite Off: %s", stats.Verify.Report())
	}
}
