// Package mir defines Flick's marshal intermediate representation: the
// language- and transport-independent programs that encode (marshal) or
// decode (unmarshal) message payloads. Back ends lower PRES trees plus a
// wire format into mir programs; emitters then render the programs as C
// (through CAST) or Go source, and the interpretive baselines deliberately
// bypass this layer.
//
// The §3 optimizations of the paper live here:
//
//   - grouped buffer management (one Ensure per maximal fixed-size or
//     bounded message segment instead of one per atom),
//   - chunking (constant chunk pointer + constant offsets inside
//     fixed-layout regions),
//   - memcpy/bulk copying of byte-compatible arrays,
//   - inlining (aggregate marshal code expanded in place; out-of-line
//     subprograms only for recursion, or everywhere when disabled),
//   - parameter management (PlanStorage: one slab per unmarshaled
//     message for its strings and byte sequences; not an Option — it is
//     licensed by analysis alone).
//
// Each of the first four is independently switchable through Options so
// the ablation benchmarks can quantify it.
package mir

import (
	"fmt"

	"flick/internal/pres"
	"flick/internal/wire"
)

// Dir says whether a program encodes or decodes.
type Dir int

const (
	Marshal Dir = iota
	Unmarshal
)

func (d Dir) String() string {
	if d == Marshal {
		return "marshal"
	}
	return "unmarshal"
}

// Options toggle the optimizations (all on in production; selectively off
// for ablation benchmarks and for modeling naive compilers).
type Options struct {
	// GroupEnsures emits one buffer-space check per maximal statically
	// bounded segment. Off: one check per atomic datum (rpcgen style).
	GroupEnsures bool
	// Chunk merges runs of statically placed atoms into fixed-layout
	// chunks addressed by constant offsets from a chunk pointer.
	Chunk bool
	// Memcpy bulk-copies arrays whose element encoding is
	// byte-compatible with the presented layout.
	Memcpy bool
	// Inline expands aggregate marshal code in place; off, every named
	// aggregate becomes an out-of-line subprogram call.
	Inline bool
	// BoundedThreshold is the byte limit under which a
	// variable-but-bounded segment is treated like a fixed segment for
	// Ensure grouping (the paper's 8KB threshold).
	BoundedThreshold int
	// Stats, when non-nil, accumulates optimizer counters across every
	// program lowered with these options (the paper's §3 claims as
	// observable numbers). Collection does not change the generated
	// code.
	Stats *Stats
}

// Stats counts what the optimizer did: how many buffer-space checks
// grouping removed, how many fixed-layout chunks formed, how many
// element loops became bulk copies, and how inlining split aggregates
// between in-place expansion and out-of-line subprograms. One Stats
// may accumulate across many programs (Programs counts them).
type Stats struct {
	// Programs is the number of marshal/unmarshal programs optimized.
	Programs int `json:"programs"`
	// SpaceChecksBefore / SpaceChecksAfter count the Ensure (and
	// dynamic Ensure) ops entering and leaving the grouping pass: the
	// difference is the checks the paper's grouped buffer management
	// eliminated. Zero when grouping is disabled.
	SpaceChecksBefore int `json:"space_checks_before"`
	SpaceChecksAfter  int `json:"space_checks_after"`
	// Chunks / ChunkItems / ChunkBytes describe the fixed-layout
	// regions the chunking pass formed: regions, atoms placed at
	// constant offsets within them, and their total byte size.
	Chunks     int `json:"chunks"`
	ChunkItems int `json:"chunk_items"`
	ChunkBytes int `json:"chunk_bytes"`
	// BulkArrays counts element loops converted to single bulk
	// (memcpy-style) transfers.
	BulkArrays int `json:"bulk_arrays"`
	// AliasSafe / AliasCopy count the transfer regions the alias pass
	// proved safe to send or decode in place versus the regions it
	// required to go through the marshal buffer (the zero-copy
	// licensing decision, surfaced under -stats).
	AliasSafe int `json:"alias_safe"`
	AliasCopy int `json:"alias_copy"`
	// InlinedAggregates counts named aggregates expanded in place;
	// OutOfLineSubs counts subprograms emitted instead (recursive
	// types, or everything when inlining is off).
	InlinedAggregates int `json:"inlined_aggregates"`
	OutOfLineSubs     int `json:"out_of_line_subs"`
	// SlabSites counts decoded strings and byte sequences carved from
	// their message's slab; the SlabFallback* counters are the ones
	// that keep a per-datum allocation, by reason: the message's lone
	// such value, variable-size data that is not byte payload in the
	// same region, a recursive subprogram in it (see PlanStorage).
	SlabSites             int `json:"slab_sites"`
	SlabFallbackLone      int `json:"slab_fallback_lone"`
	SlabFallbackVariable  int `json:"slab_fallback_variable"`
	SlabFallbackRecursive int `json:"slab_fallback_recursive"`
}

// SlabFallbackSites returns the byte-data sites left on per-datum
// allocation, all reasons together.
func (s *Stats) SlabFallbackSites() int {
	return s.SlabFallbackLone + s.SlabFallbackVariable + s.SlabFallbackRecursive
}

// SpaceChecksEliminated returns the checks removed by grouping.
func (s *Stats) SpaceChecksEliminated() int {
	return s.SpaceChecksBefore - s.SpaceChecksAfter
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Programs += o.Programs
	s.SpaceChecksBefore += o.SpaceChecksBefore
	s.SpaceChecksAfter += o.SpaceChecksAfter
	s.Chunks += o.Chunks
	s.ChunkItems += o.ChunkItems
	s.ChunkBytes += o.ChunkBytes
	s.BulkArrays += o.BulkArrays
	s.AliasSafe += o.AliasSafe
	s.AliasCopy += o.AliasCopy
	s.InlinedAggregates += o.InlinedAggregates
	s.OutOfLineSubs += o.OutOfLineSubs
	s.SlabSites += o.SlabSites
	s.SlabFallbackLone += o.SlabFallbackLone
	s.SlabFallbackVariable += o.SlabFallbackVariable
	s.SlabFallbackRecursive += o.SlabFallbackRecursive
}

// AllOptimizations returns the production option set.
func AllOptimizations() Options {
	return Options{
		GroupEnsures:     true,
		Chunk:            true,
		Memcpy:           true,
		Inline:           true,
		BoundedThreshold: 8 << 10,
	}
}

// NoOptimizations returns the fully naive option set.
func NoOptimizations() Options {
	return Options{BoundedThreshold: 8 << 10}
}

// SizeClass is the paper's storage classification of a message region.
type SizeClass int

const (
	FixedSize SizeClass = iota
	BoundedSize
	UnboundedSize
)

func (c SizeClass) String() string {
	switch c {
	case FixedSize:
		return "fixed"
	case BoundedSize:
		return "bounded"
	case UnboundedSize:
		return "unbounded"
	}
	return fmt.Sprintf("SizeClass(%d)", int(c))
}

// Ref is a path to presented data relative to the stub's parameters.
type Ref interface {
	refNode()
	String() string
}

// Param is a root value: one stub parameter (or the subprogram argument).
type Param struct {
	Name  string
	Index int
}

// Field selects a struct member.
type Field struct {
	Base Ref
	// Name is the presented field name (a Go field or C member name).
	Name string
	// Index is the slot position.
	Index int
}

// Elem is the current element of the enclosing Loop with variable Var.
type Elem struct{ Var string }

// Len is the element count of a counted value (len(x) in Go, the
// _length member or strlen in C).
type Len struct{ Base Ref }

// Deref is the target of an optional pointer.
type Deref struct{ Base Ref }

func (*Param) refNode() {}
func (*Field) refNode() {}
func (*Elem) refNode()  {}
func (*Len) refNode()   {}
func (*Deref) refNode() {}

func (r *Param) String() string { return r.Name }
func (r *Field) String() string { return r.Base.String() + "." + r.Name }
func (r *Elem) String() string  { return r.Var }
func (r *Len) String() string   { return "len(" + r.Base.String() + ")" }
func (r *Deref) String() string { return "*" + r.Base.String() }

// Op is one marshal-program operation.
type Op interface{ isOp() }

// Align pads the cursor to an N-byte boundary (writing zeros when
// marshaling, skipping when unmarshaling).
type Align struct{ N int }

// Ensure requires Bytes of buffer space (marshal: grow; unmarshal: check
// remaining).
type Ensure struct{ Bytes int }

// EnsureDyn requires Base + PerElem*len(Count) bytes.
type EnsureDyn struct {
	Base    int
	PerElem int
	Count   Ref
	// Pres presents the counted value (emitters derive the count
	// expression from it).
	Pres *pres.Node
}

// Item transfers one atom between Val and the wire.
type Item struct {
	Atom wire.Atom
	// Wire is the encoded byte width (≥ the presented width for XDR).
	Wire int
	Val  Ref
	// Pres is the presenting node (emitters use its target type).
	Pres *pres.Node
}

// ConstItem writes (marshal) or checks (unmarshal) a literal value.
type ConstItem struct {
	Atom  wire.Atom
	Wire  int
	Value uint64
}

// LenItem transfers the element count of the counted value Val.
// Marshaling writes len(Val) (plus one when Nul); unmarshaling reads the
// count, validates it against Bound, and allocates Val.
type LenItem struct {
	Wire  int
	Val   Ref
	Bound uint64
	// Nul marks CDR strings: the count includes a terminating NUL.
	Nul  bool
	Pres *pres.Node
	// ElemMin is the least number of wire bytes one counted element
	// occupies (unmarshal programs; set by optimize): the decoder
	// rejects a count the rest of the message cannot hold.
	ElemMin int
	// Slab marks the length item of a byte sequence carved from the
	// message slab (see PlanStorage): storage comes from the slab, not a
	// per-datum allocation.
	Slab bool
}

// Bulk copies the whole element payload of an array at once (the memcpy
// optimization). Count is the static element count, or -1 to use
// len(Val). Pad pads the payload to a multiple (XDR opaque padding); Nul
// appends/consumes a NUL byte (CDR strings).
type Bulk struct {
	Val      Ref
	Atom     wire.Atom
	ElemWire int
	Count    int
	Pad      int
	Nul      bool
	// Pres presents the element; OverPres presents the whole array.
	Pres     *pres.Node
	OverPres *pres.Node
	// Alias is the alias pass's zero-copy classification for this
	// region (nil until the pass runs). Only an AliasSafe proof
	// licenses the emitter's zero-copy path, and the zerocopy verifier
	// cross-checks every proof at the stage boundary.
	Alias *AliasProof
	// Slab marks a byte-data site carved from the message slab (see
	// PlanStorage).
	Slab bool
}

// Loop runs Body once per element of Over, binding the element to Var.
// Count is the static trip count or -1 when dynamic.
type Loop struct {
	Over  Ref
	Var   string
	Count int
	Body  []Op
	// ElemPres presents the element type; OverPres the whole array.
	ElemPres *pres.Node
	OverPres *pres.Node
	// Slab marks a byte-data element loop (a string or byte sequence
	// decoded without the memcpy optimization) carved from the message
	// slab (see PlanStorage).
	Slab bool
}

// Opt is optional data: a presence boolean followed, when present, by
// Body (which addresses Deref(Val)).
type Opt struct {
	Val  Ref
	Wire int // encoded width of the presence flag
	Body []Op
	Pres *pres.Node
}

// Switch is a discriminated union: the discriminator travels as an atom,
// then the arm selected by its value.
type Switch struct {
	On    Ref
	Atom  wire.Atom
	Wire  int
	Cases []SwitchCase
	// HasDefault selects Default for unmatched values; otherwise an
	// unmatched discriminator is a protocol error on unmarshal (and a
	// caller bug on marshal).
	HasDefault bool
	Default    []Op
	Pres       *pres.Node
}

// SwitchCase is one union arm.
type SwitchCase struct {
	Values []int64
	Body   []Op
}

// Chunk is a fixed-layout region: Size bytes transferred through a chunk
// pointer with constant offsets (the chunking optimization). The region
// begins aligned; Items' offsets are relative to it.
type Chunk struct {
	Size  int
	Items []ChunkItem
	// Alias records the alias pass's classification (always
	// copy-required for chunks: their atoms are assembled in the
	// marshal buffer); the zerocopy verifier rejects anything else.
	Alias *AliasProof
}

// ChunkItem is one statically placed atom within a Chunk.
type ChunkItem struct {
	Off  int
	Atom wire.Atom
	Wire int
	// Exactly one of Val / Const is meaningful; IsLen marks length
	// prefixes (with Bound/Nul as in LenItem).
	Val   Ref
	Const *uint64
	IsLen bool
	Bound uint64
	Nul   bool
	Pres  *pres.Node
	// ElemMin and Slab are LenItem's, for length prefixes.
	ElemMin int
	Slab    bool
}

// CallSub invokes an out-of-line subprogram (recursive types; every named
// aggregate when inlining is off) with Arg as its root value.
type CallSub struct {
	Sub int
	Arg Ref
}

// Bodies calls f on each op list nested in a structured op — a loop's or
// an optional's body, a switch's arms and then its default (nil when it
// has none) — through a pointer, so a pass can read the list or replace
// it. Other ops have none. It is the one spelling of the recursion every
// pass that treats all nested lists alike goes through.
func Bodies(op Op, f func(body *[]Op)) {
	switch op := op.(type) {
	case *Loop:
		f(&op.Body)
	case *Opt:
		f(&op.Body)
	case *Switch:
		for i := range op.Cases {
			f(&op.Cases[i].Body)
		}
		f(&op.Default)
	}
}

func (*Align) isOp()     {}
func (*Ensure) isOp()    {}
func (*EnsureDyn) isOp() {}
func (*Item) isOp()      {}
func (*ConstItem) isOp() {}
func (*LenItem) isOp()   {}
func (*Bulk) isOp()      {}
func (*Loop) isOp()      {}
func (*Opt) isOp()       {}
func (*Switch) isOp()    {}
func (*Chunk) isOp()     {}
func (*CallSub) isOp()   {}

// Sub is an out-of-line marshal routine for one presented type.
type Sub struct {
	// Name is a stable identifier derived from the presented type.
	Name string
	Pres *pres.Node
	Ops  []Op
}

// Program is a complete marshal or unmarshal routine for one message
// payload.
type Program struct {
	Dir  Dir
	Ops  []Op
	Subs []*Sub
	// Class, FixedBytes, and BoundBytes summarize the payload's storage
	// requirements (the paper's fixed / bounded / unbounded analysis).
	Class      SizeClass
	FixedBytes int
	BoundBytes int
	// Slab is the unmarshal-side storage plan, nil until PlanStorage
	// licenses one.
	Slab *SlabPlan
}

// Root pairs a root value name with the PRES tree presenting it.
type Root struct {
	Name string
	Pres *pres.Node
}
