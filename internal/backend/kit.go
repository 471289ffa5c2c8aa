// Package backend is the back ends' base library: every decision the Go
// and the C emitter share is made here once, and each emitter keeps only
// what renders its language. The kit sequences a message's trip from
// PRES-C to a verified MIR program, picks its roots, builds the
// operation-name demultiplexing tree, and schedules out-of-line
// subprograms; it emits no target-language text.
package backend

import (
	"cmp"
	"slices"

	"flick/internal/mir"
	"flick/internal/presc"
	"flick/internal/verify"
	"flick/internal/wire"
)

// Lowering is how a back end turns message roots into a program it may
// emit from: lower and optimize, plan storage if the target manages
// parameters, then pass the stage-boundary verifiers.
type Lowering struct {
	Format wire.Format
	Opts   mir.Options
	Verify verify.Mode
	// Counters, when non-nil, accumulates verifier coverage.
	Counters *verify.Counters
	// PlanStorage runs the unmarshal-side storage plan (a target whose
	// stubs allocate what they decode; C unmarshals in place). Skip names
	// the byte regions whose storage comes from elsewhere.
	PlanStorage bool
	Skip        func(*mir.Bulk) bool
	// VerifyAlias also re-derives the program's zero-copy proofs: an
	// emitter only trusts an alias-safe proof the verifier signed.
	VerifyAlias bool
}

// Program lowers roots into the verified program named name.
func (l Lowering) Program(name string, dir mir.Dir, roots []mir.Root) (*mir.Program, error) {
	prog, err := mir.Lower(dir, roots, l.Format, l.Opts)
	if err != nil {
		return nil, err
	}
	if l.PlanStorage {
		mir.PlanStorage(prog, l.Skip, l.Opts.Stats)
	}
	// Stage boundary: the optimized program must satisfy the emitters'
	// invariants (space-check dominance, chunk layout, bulk identity)
	// before any code is generated from it.
	if fs := verify.MIR(prog, l.Format, name, l.Verify, l.Counters); len(fs) > 0 {
		return nil, fs.AsError()
	}
	if l.VerifyAlias {
		if fs := verify.ZeroCopy(prog, l.Format, name, l.Verify, l.Counters); len(fs) > 0 {
			return nil, fs.AsError()
		}
	}
	return prog, nil
}

// Roots returns the values a stub's request (or, with reply set, its
// successful reply) marshals, in wire order: the result first, then the
// parameters that travel that way, each under its presented name.
func Roots(s *presc.Stub, reply bool) []mir.Root {
	var roots []mir.Root
	if !reply {
		for _, p := range s.RequestParams() {
			roots = append(roots, mir.Root{Name: p.Name, Pres: p.Request})
		}
		return roots
	}
	if s.Result != nil && s.Result.Reply != nil {
		roots = append(roots, mir.Root{Name: s.Result.Name, Pres: s.Result.Reply})
	}
	for _, p := range s.ReplyParams() {
		roots = append(roots, mir.Root{Name: p.Name, Pres: p.Reply})
	}
	return roots
}

// Interface is one interface's stubs, in presentation order.
type Interface struct {
	Name  string
	Stubs []*presc.Stub
}

// Interfaces groups a presentation's stubs by interface, in order of
// first appearance.
func Interfaces(f *presc.File) []Interface {
	var out []Interface
	at := map[string]int{}
	for _, s := range f.Stubs {
		i, seen := at[s.Interface]
		if !seen {
			i = len(out)
			at[s.Interface] = i
			out = append(out, Interface{Name: s.Interface})
		}
		out[i].Stubs = append(out[i].Stubs, s)
	}
	return out
}

// DemuxByName reports whether the format's protocol names operations by
// string (GIOP) rather than by number.
func DemuxByName(f wire.Format) bool {
	return f.Name() == "cdr-be" || f.Name() == "cdr-le"
}

// Demux is one switch of the decision tree a server walks to find an
// operation by name: the paper's discriminator hashing applied to string
// discriminators. The root switches on the name's length; every level
// below on the next four bytes of the name as one machine word, until
// the whole name is consumed. aoi.Validate has rejected duplicate
// operation names, so a name consumed identifies exactly one stub.
type Demux struct {
	// Off is the byte offset of the word the arms are keyed by; -1 at
	// the root, whose arms are keyed by length.
	Off  int
	Arms []DemuxArm
}

// DemuxArm is one case of a Demux switch. It ends at Stub when the key
// completes the name, and goes on to Next otherwise.
type DemuxArm struct {
	Key uint32
	// Text is the name bytes Key packs (empty at the root).
	Text string
	Stub *presc.Stub
	Next *Demux
}

// NewDemux builds the tree over stubs: lengths ascending, words in order
// of first appearance.
func NewDemux(stubs []*presc.Stub) *Demux {
	stubs = append([]*presc.Stub(nil), stubs...) // regrouped in place below
	root := &Demux{Off: -1}
	for len(stubs) > 0 {
		n := leadRun(stubs, func(s *presc.Stub) uint32 { return uint32(len(s.OpName)) })
		arm := DemuxArm{Key: uint32(len(stubs[0].OpName))}
		arm.Stub, arm.Next = demuxWords(stubs[:n], 0)
		root.Arms = append(root.Arms, arm)
		stubs = stubs[n:]
	}
	slices.SortFunc(root.Arms, func(a, b DemuxArm) int { return cmp.Compare(a.Key, b.Key) })
	return root
}

// demuxWords tells stubs — equally long names that agree on their first
// off bytes — apart: the one stub when the names end at off, a switch on
// the word at off otherwise.
func demuxWords(stubs []*presc.Stub, off int) (*presc.Stub, *Demux) {
	if off >= len(stubs[0].OpName) {
		return stubs[0], nil
	}
	d := &Demux{Off: off}
	for len(stubs) > 0 {
		n := leadRun(stubs, func(s *presc.Stub) uint32 { return Word4(s.OpName, off) })
		name := stubs[0].OpName
		arm := DemuxArm{Key: Word4(name, off), Text: name[off:min(off+4, len(name))]}
		arm.Stub, arm.Next = demuxWords(stubs[:n], off+4)
		d.Arms = append(d.Arms, arm)
		stubs = stubs[n:]
	}
	return nil, d
}

// leadRun moves the stubs that share the first one's key to the front,
// keeping their order and the order of the rest, and returns how many
// they are.
func leadRun(stubs []*presc.Stub, key func(*presc.Stub) uint32) int {
	k, n := key(stubs[0]), 1
	for i := 1; i < len(stubs); i++ {
		if s := stubs[i]; key(s) == k {
			copy(stubs[n+1:i+1], stubs[n:i])
			stubs[n] = s
			n++
		}
	}
	return n
}

// Word4 packs up to four bytes of s starting at off into a big-endian
// word, zero-padded past the end: the key generated dispatchers compute
// with rt.Word4 (FLICK_WORD4 in C).
func Word4(s string, off int) uint32 {
	var w uint32
	for i := 0; i < 4 && off+i < len(s); i++ {
		w |= uint32(s[off+i]) << (24 - 8*i)
	}
	return w
}

// Subs schedules a generation run's out-of-line subprograms: each is
// emitted once per emitted name, however many programs call it.
type Subs map[string]bool

// Each calls emit for every subprogram of prog whose name (as name
// spells it) no earlier program of the run has emitted.
func (seen Subs) Each(prog *mir.Program, name func(*mir.Sub) string, emit func(name string, sub *mir.Sub) error) error {
	for _, sub := range prog.Subs {
		n := name(sub)
		if seen[n] {
			continue
		}
		seen[n] = true
		if err := emit(n, sub); err != nil {
			return err
		}
	}
	return nil
}
