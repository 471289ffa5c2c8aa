// Package verify implements Flick-Go's stage-boundary IR verifiers: one
// pass per intermediate representation, run by the driver between
// pipeline stages so a malformed IR node or an optimizer bug is caught
// where it is introduced, with a stage-qualified diagnostic, instead of
// surfacing as corrupt wire bytes at runtime.
//
// Three verifiers cover the pipeline below AOI (which has its own
// validator in package aoi):
//
//   - MINT — well-formed message shapes: resolved refs, sane integer
//     ranges, distinct union labels, and acyclicity except through a
//     union arm (the MINT encoding of optional data, mirroring XDR's
//     recursion-through-pointer rule).
//   - PRESC — every PRES mapping node connects a live MINT node to a
//     live target type: node kinds match the MINT shapes beneath them,
//     child nodes present exactly the components of the parent's MINT
//     type (up to structural equality), counted arrays carry a length,
//     terminated strings map char-like items, and C presentations have
//     no dangling CAST declarations.
//   - MIR — post-optimize invariants: chunk offsets are in-bounds,
//     contiguous, and format-aligned; every region the emitters read or
//     write unchecked is dominated by an ensure-space check; bulk
//     (memcpy) transfers really are byte-identical under the target
//     wire format; and the classify() totals agree with the op layout.
//
// Verifiers report findings rather than stopping at the first problem,
// so one run over a corrupted IR names everything wrong with it.
package verify

import (
	"fmt"
	"strings"
)

// Mode selects how much verification the driver runs. The zero value is
// On so every caller gets stage-boundary checking by default.
type Mode int

const (
	// On runs the linear-time verifier passes between every stage.
	On Mode = iota
	// Off skips verification (`flick -verify=off`).
	Off
	// Strict additionally runs the O(n²) overlap checks on chunk
	// layouts (`flick -verify=strict`).
	Strict
)

func (m Mode) String() string {
	switch m {
	case On:
		return "on"
	case Off:
		return "off"
	case Strict:
		return "strict"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode maps a -verify flag value onto a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "on", "true", "1":
		return On, nil
	case "off", "false", "0":
		return Off, nil
	case "strict":
		return Strict, nil
	}
	return On, fmt.Errorf("verify: unknown mode %q (want on, off, or strict)", s)
}

// Finding is one verifier diagnostic: the stage that failed, the path to
// the offending node within that stage's IR, and what is wrong with it.
type Finding struct {
	// Stage names the verifier pass: "MINT", "PRES-C", or "MIR".
	Stage string
	// Path locates the node, e.g. "stub Mail_send: request.slots[1].elem".
	Path string
	// Msg describes the violated invariant.
	Msg string
}

func (f Finding) String() string {
	if f.Path == "" {
		return fmt.Sprintf("verify/%s: %s", f.Stage, f.Msg)
	}
	return fmt.Sprintf("verify/%s: %s: %s", f.Stage, f.Path, f.Msg)
}

// Findings aggregates every diagnostic of one verifier run. A nil or
// empty Findings means the IR passed.
type Findings []Finding

// Error renders the findings as one multi-line error message.
func (fs Findings) Error() string {
	if len(fs) == 0 {
		return "verify: ok"
	}
	lines := make([]string, 0, len(fs)+1)
	lines = append(lines, fmt.Sprintf("verify: %d finding(s)", len(fs)))
	for _, f := range fs {
		lines = append(lines, "  "+f.String())
	}
	return strings.Join(lines, "\n")
}

// AsError returns the findings as an error, or nil when there are none
// (a typed-nil-safe conversion for callers that abort on findings).
func (fs Findings) AsError() error {
	if len(fs) == 0 {
		return nil
	}
	return fs
}

// Counters accumulates what the verifier passes covered, surfaced
// through `flick -stats` next to the optimizer counters.
type Counters struct {
	// MintNodes is the number of MINT nodes visited.
	MintNodes int `json:"mint_nodes"`
	// PrescStubs is the number of PRES-C stubs verified.
	PrescStubs int `json:"presc_stubs"`
	// MirPrograms is the number of post-optimize MIR programs verified
	// (including out-of-line subprograms).
	MirPrograms int `json:"mir_programs"`
	// MirChunks is the number of chunk layouts checked.
	MirChunks int `json:"mir_chunks"`
	// ZcRegions is the number of transfer regions (bulks and chunks)
	// whose zero-copy proofs the zerocopy verifier cross-checked;
	// ZcAliased the subset whose alias-safe claim survived independent
	// re-derivation.
	ZcRegions int `json:"zc_regions"`
	ZcAliased int `json:"zc_aliased"`
	// Findings counts diagnostics across all passes (zero on a healthy
	// compile: verification is on by default and findings abort it).
	Findings int `json:"findings"`
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.MintNodes += o.MintNodes
	c.PrescStubs += o.PrescStubs
	c.MirPrograms += o.MirPrograms
	c.MirChunks += o.MirChunks
	c.ZcRegions += o.ZcRegions
	c.ZcAliased += o.ZcAliased
	c.Findings += o.Findings
}

// Report renders a one-line coverage summary.
func (c Counters) Report() string {
	return fmt.Sprintf("verify: %d mint nodes, %d presc stubs, %d mir programs (%d chunk layouts), %d zero-copy regions (%d alias-safe), %d findings",
		c.MintNodes, c.PrescStubs, c.MirPrograms, c.MirChunks, c.ZcRegions, c.ZcAliased, c.Findings)
}
