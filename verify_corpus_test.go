package flick_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
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

var update = flag.Bool("update", false, "rewrite testdata/corpus.sha256 from this run's compiler output")

const corpusDigestFile = "testdata/corpus.sha256"

// corpusDigests pins the compiler's output for one corpus gate's
// configurations: every generated file is hashed and compared with the
// committed digest file, one "<sha256>  <section> <config>" line each.
// The file is the byte-identity reference for refactors of the compiler;
// it changes only when generated code is meant to change, through the
// goldens' -update convention (go test . -run Corpus -update).
type corpusDigests struct {
	t       *testing.T
	section string
	want    map[string]string // config → digest, this section's committed lines
	got     map[string]string
	others  []string // the other sections' lines, kept verbatim on -update
}

func openCorpusDigests(t *testing.T, section string) *corpusDigests {
	t.Helper()
	d := &corpusDigests{t: t, section: section, want: map[string]string{}, got: map[string]string{}}
	data, err := os.ReadFile(corpusDigestFile)
	if err != nil && !*update {
		t.Fatalf("missing %s (run with -update): %v", corpusDigestFile, err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		sum, rest, ok := strings.Cut(line, "  ")
		if !ok {
			continue
		}
		if config, mine := strings.CutPrefix(rest, section+" "); mine {
			d.want[config] = sum
		} else {
			d.others = append(d.others, line)
		}
	}
	return d
}

// record checks one configuration's output against its committed digest.
func (d *corpusDigests) record(config, out string) {
	sum := fmt.Sprintf("%x", sha256.Sum256([]byte(out)))
	d.got[config] = sum
	if *update {
		return
	}
	switch want, ok := d.want[config]; {
	case !ok:
		d.t.Errorf("%s %s: no committed digest (review and run -update)", d.section, config)
	case want != sum:
		d.t.Errorf("%s %s: compiler output differs from the committed digest (review and run -update)", d.section, config)
	}
}

// close rewrites the section under -update, and otherwise fails on a
// committed digest no configuration produced (-short runs a subset of the
// configurations, so neither is possible there).
func (d *corpusDigests) close() {
	if testing.Short() {
		if *update {
			d.t.Fatalf("-update needs the full configuration set; drop -short")
		}
		return
	}
	if !*update {
		for config := range d.want {
			if _, ok := d.got[config]; !ok {
				d.t.Errorf("%s %s: committed digest is stale, nothing compiles this configuration", d.section, config)
			}
		}
		return
	}
	lines := d.others
	for config, sum := range d.got {
		lines = append(lines, sum+"  "+d.section+" "+config)
	}
	const digest = sha256.Size*2 + len("  ") // lines sort by what follows it
	sort.Slice(lines, func(i, j int) bool { return lines[i][digest:] < lines[j][digest:] })
	if err := os.MkdirAll(filepath.Dir(corpusDigestFile), 0o755); err != nil {
		d.t.Fatal(err)
	}
	if err := os.WriteFile(corpusDigestFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		d.t.Fatal(err)
	}
}

// disableSubsets lists the -disable subsets a corpus gate compiles under,
// as bit masks over group, chunk, memcpy, inline, params: all sixteen
// subsets of the first four for the optimizing style (-short keeps
// all-on and all-off), plus params alone against all-on, and none for
// the baselines, whose optimizations are off to begin with. keep
// filters (the zerocopy gate cannot disable memcpy).
func disableSubsets(style string, keep func(mask int) bool) []int {
	if style != "flick" {
		return []int{0}
	}
	var masks []int
	for mask := 0; mask <= paramsOff; mask++ {
		if testing.Short() && mask != 0 && mask != 15 && mask != paramsOff {
			continue
		}
		if keep == nil || keep(mask) {
			masks = append(masks, mask)
		}
	}
	return masks
}

// paramsOff is the disableSubsets mask of -disable params, the one
// mask past the sixteen subsets of the others.
const paramsOff = 16

// withDisabled applies a disableSubsets mask to opts and spells it the
// way the -disable flag would.
func withDisabled(opts flick.Options, mask int) (flick.Options, string) {
	opts.DisableGroup, opts.DisableChunk = mask&1 != 0, mask&2 != 0
	opts.DisableMemcpy, opts.DisableInline = mask&4 != 0, mask&8 != 0
	opts.DisableParams = mask&paramsOff != 0
	var names []string
	for i, name := range []string{"group", "chunk", "memcpy", "inline", "params"} {
		if mask&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return opts, "disable=" + strings.Join(names, ",")
}

// corpusSurfaces are the surface sets the Go back end is pinned under:
// the default and everything at once.
var corpusSurfaces = []string{"", "sync,async,ctx,stream"}

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
	digests := openCorpusDigests(t, "verify")
	defer digests.close()
	for _, in := range sources {
		file, src := in.file, in.src
		langs := []string{"go", "c"}
		if strings.HasSuffix(file, ".defs") {
			langs = []string{"go"}
		}
		for _, lang := range langs {
			// What varies beside format, style and -disable: the surface
			// set of the Go stubs, the side of the C presentation.
			faces := map[string][]string{"go": corpusSurfaces, "c": {"client", "server"}}[lang]
			for _, format := range []string{"xdr", "cdr", "cdr-le", "mach3", "fluke"} {
				for _, style := range []string{"flick", "rpcgen", "powerrpc"} {
					for _, face := range faces {
						// Parameter management is the Go stubs' (C
						// unmarshals in place).
						goOnly := func(mask int) bool { return lang == "go" || mask != paramsOff }
						for _, mask := range disableSubsets(style, goOnly) {
							base := flick.Options{
								Lang: lang, Format: format, Style: style,
								Package: "p", EmitRPC: lang == "go",
								Verify: verify.Strict,
							}
							if lang == "go" {
								base.Surfaces = face
							} else {
								base.Side = face
							}
							opts, disabled := withDisabled(base, mask)
							config := fmt.Sprintf("%s lang=%s format=%s style=%s face=%s %s",
								file, lang, format, style, face, disabled)
							stats := &gostub.Stats{}
							opts.Stats = stats
							out, err := flick.Compile(file, src, opts)
							if err != nil {
								t.Errorf("%s: %v", config, err)
								continue
							}
							digests.record(config, out)
							if stats.Verify.Findings != 0 {
								t.Errorf("%s: %d verifier findings", config, stats.Verify.Findings)
							}
							if stats.Verify.MirPrograms == 0 || stats.Verify.PrescStubs == 0 {
								t.Errorf("%s: verifier ran over nothing (%s)", config, stats.Verify.Report())
							}
						}
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
	digests := openCorpusDigests(t, "zerocopy")
	defer digests.close()
	keepsMemcpy := func(mask int) bool { return mask&4 == 0 }
	for _, file := range corpusIDLs(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, format := range []string{"xdr", "cdr", "cdr-le", "mach3", "fluke"} {
			for _, surfaces := range corpusSurfaces {
				for _, mask := range disableSubsets("flick", keepsMemcpy) {
					opts, disabled := withDisabled(flick.Options{
						Lang: "go", Format: format, Style: "flick",
						Package: "p", EmitRPC: true,
						Surfaces: surfaces,
						ZeroCopy: true,
						Verify:   verify.Strict,
					}, mask)
					config := fmt.Sprintf("%s format=%s face=%s %s", file, format, surfaces, disabled)
					stats := &gostub.Stats{}
					opts.Stats = stats
					out, err := flick.Compile(file, string(src), opts)
					if err != nil {
						t.Errorf("%s: %v", config, err)
						continue
					}
					digests.record(config, out)
					if stats.Verify.Findings != 0 {
						t.Errorf("%s: %d verifier findings under -zerocopy", config, stats.Verify.Findings)
					}
					totalRegions += stats.Verify.ZcRegions
					totalAliased += stats.Verify.ZcAliased
				}
			}
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
	digests := openCorpusDigests(t, "lint")
	defer digests.close()
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
			digests.record(fmt.Sprintf("%s face=%s", file, surfaces), code)
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

// TestVerifyOffSkipsChecks confirms -verify=off plumbing: counters stay
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
