package verify

import (
	"fmt"

	"flick/internal/mint"
	"flick/internal/mir"
	"flick/internal/wire"
)

// MIR verifies a post-optimize marshal program against the invariants
// the emitters rely on:
//
//   - Chunk layouts are well formed: items lie in-bounds, are exactly
//     contiguous (chunkPass packs runs of statically placed atoms), and
//     — while the buffer offset is statically known — land on offsets
//     aligned for their atoms under the target format. Strict mode adds
//     the O(n²) pairwise overlap check on every chunk.
//   - Space-check dominance: every op that transfers bytes unchecked
//     (Item, ConstItem, LenItem, Bulk, Chunk) is covered by an earlier
//     Ensure/EnsureDyn in its region, with exact byte accounting that
//     mirrors the grouping pass (absorbed loop bodies and switch arms
//     draw on the hoisted check's budget).
//   - Bulk (memcpy) transfers are byte-identical under the format: the
//     element is an atom whose per-element wire width matches
//     f.ArrayElemSize, so a flat copy reproduces the element loop.
//   - Count guards are sound: the per-element minimum a length item
//     hands the decoder (ElemMin, derived by the optimizer from Ensure
//     sums) never exceeds the bytes one element provably transfers,
//     re-derived here from the transfer ops themselves — an inflated
//     minimum would reject valid messages.
//   - classify() consistency: a program whose ops are fully static must
//     be classified FixedSize with FixedBytes equal to the bytes the
//     ops actually produce; a program with dynamic ops must not claim
//     FixedSize.
//
// name labels the program in diagnostics (e.g. "Mail_send.request").
func MIR(prog *mir.Program, f wire.Format, name string, mode Mode, c *Counters) Findings {
	if mode == Off {
		return nil
	}
	v := &mirVerifier{f: f, dir: prog.Dir, strict: mode == Strict, c: c, subs: prog.Subs}
	if c != nil {
		c.MirPrograms += 1 + len(prog.Subs)
	}
	v.verifyOps(prog.Ops, name, space{}, newCursor(f), false)
	for i, sub := range prog.Subs {
		subName := fmt.Sprintf("%s.sub[%d:%s]", name, i, sub.Name)
		if sub.Pres == nil {
			v.failf(subName, "out-of-line subprogram with no PRES node")
		}
		// A subprogram runs at an unknown buffer position with no
		// inherited space budget.
		v.verifyOps(sub.Ops, subName, space{}, unknownCursor(), false)
	}
	v.checkClassify(prog, f, name)
	if c != nil {
		c.Findings += len(v.out)
	}
	return v.out
}

type mirVerifier struct {
	f      wire.Format
	dir    mir.Dir
	strict bool
	c      *Counters
	out    Findings
	// subs resolves CallSub ops for minTransfer.
	subs []*mir.Sub
}

func (v *mirVerifier) failf(path, format string, args ...any) {
	v.out = append(v.out, Finding{Stage: "MIR", Path: path, Msg: fmt.Sprintf(format, args...)})
}

// --- space accounting -------------------------------------------------------

// space tracks the bytes guaranteed available by dominating
// ensure-space checks. A check guarantees an amount *at the point it
// runs* — checks do not add up: Grow(k) after GrowDyn(n) tests that
// max(n, k) bytes fit, not n+k — so the model is a lower bound, not a
// ledger: a static budget, plus at most one pending dynamic credit (the
// counted value the last EnsureDyn provisioned, still unwritten).
type space struct {
	budget int
	// dyn names the value provisioned by the last EnsureDyn, "" when
	// none is pending.
	dyn string
}

// ensure applies a static check: n bytes fit now. That says nothing
// beyond what earlier checks already guaranteed unless n is larger, and
// it cannot be added to a pending dynamic credit — with D dynamic bytes
// pending the check only proves max(budget+D, n), which for unknown D
// is no more than n with the credit forfeited.
func (s *space) ensure(n int) {
	if n > s.budget {
		s.budget = n
	}
	s.dyn = ""
}

// ensureDyn applies a dynamic check: base bytes plus the payload of val
// fit now. Static budget left over from earlier checks is forfeited (it
// may be smaller than the payload about to be written under it), and so
// is an earlier pending credit.
func (s *space) ensureDyn(base int, val string) {
	s.budget, s.dyn = base, val
}

// debit consumes n bytes of static budget; ok=false when the budget
// does not cover the transfer (a missing ensure-space check).
func (s *space) debit(n int) bool {
	if s.budget < n {
		return false
	}
	s.budget -= n
	return true
}

func (s *space) takeDyn(val string) bool {
	if s.dyn != "" && s.dyn == val {
		s.dyn = ""
		return true
	}
	return false
}

// --- cursor replay ----------------------------------------------------------

// cursor mirrors the lowerer's placement state: while known, off is the
// exact payload offset; when dynamic data intervenes only an alignment
// guarantee (off ≡ 0 mod guar) remains.
type cursor struct {
	known bool
	off   int
	guar  int
}

func newCursor(f wire.Format) cursor { return cursor{known: true, off: 0, guar: f.MaxAlign()} }
func unknownCursor() cursor          { return cursor{known: false, guar: 1} }

func (c *cursor) advance(n int) {
	if c.known {
		c.off += n
		return
	}
	c.guar = gcd(c.guar, n)
}

func (c *cursor) align(n int) {
	if n <= 1 {
		return
	}
	if c.known {
		c.off += (n - c.off%n) % n
		return
	}
	c.guar = n
}

// loseTrack forgets exact placement after data-dependent regions.
func (c *cursor) loseTrack() {
	c.known = false
	c.guar = 1
}

// checkAligned reports whether the current position provably satisfies
// alignment a; it returns true (skip) when nothing can be proven, so
// the verifier never flags correct code it cannot reason about.
func (c *cursor) misaligned(a int) bool {
	if a <= 1 {
		return false
	}
	if c.known {
		return c.off%a != 0
	}
	return false // unknown position: the lowerer proved more than we replay
}

func gcd(a, b int) int {
	if a < 1 {
		a = 1
	}
	if b < 1 {
		b = 1
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// --- program walk -----------------------------------------------------------

// verifyOps walks one op region, threading the space budget and the
// placement cursor. elem marks a loop body, where atoms transfer at the
// format's (possibly packed) array-element width rather than the
// stand-alone wire width.
func (v *mirVerifier) verifyOps(ops []mir.Op, path string, sp space, cur cursor, elem bool) space {
	for i, op := range ops {
		p := fmt.Sprintf("%s.ops[%d]", path, i)
		switch op := op.(type) {
		case *mir.Ensure:
			if op.Bytes < 0 {
				v.failf(p, "ensure of negative size %d", op.Bytes)
			}
			sp.ensure(op.Bytes)

		case *mir.EnsureDyn:
			if op.Count == nil {
				v.failf(p, "dynamic ensure with no counted value")
				continue
			}
			sp.ensureDyn(op.Base, op.Count.String())

		case *mir.Align:
			if op.N <= 1 {
				v.failf(p, "align to %d is a no-op", op.N)
			}
			if v.dir == mir.Marshal {
				// Grouping budgeted N-1 pad bytes for absorbed aligns;
				// stand-alone aligns self-grow, so only consume what a
				// dominating check provided.
				if sp.budget >= op.N-1 {
					sp.budget -= op.N - 1
				}
			} else {
				// Unmarshal aligns self-check and end any exact run.
				sp = space{}
			}
			cur.align(op.N)

		case *mir.Item:
			v.checkAtomWidth(op.Atom, op.Wire, elem, p)
			v.checkPlacement(&cur, op.Atom, op.Wire, &sp, p)
			if op.Val == nil {
				v.failf(p, "item with no value ref")
			}

		case *mir.ConstItem:
			v.checkAtomWidth(op.Atom, op.Wire, elem, p)
			v.checkPlacement(&cur, op.Atom, op.Wire, &sp, p)

		case *mir.LenItem:
			if op.Wire != v.f.LenSize() {
				v.failf(p, "length prefix is %d bytes, format wants %d", op.Wire, v.f.LenSize())
			}
			v.checkPlacement(&cur, wire.U32, op.Wire, &sp, p)
			if op.Val == nil {
				v.failf(p, "length prefix with no counted value")
			} else {
				v.checkElemMin(ops, op.Val, op.ElemMin, p)
			}
			// The payload that follows is data-dependent.
			cur.loseTrack()

		case *mir.Bulk:
			v.checkBulk(op, &sp, &cur, p)

		case *mir.Loop:
			v.checkLoop(op, &sp, &cur, p)

		case *mir.Opt:
			// The presence flag was provisioned by the enclosing run.
			if !sp.debit(op.Wire) {
				v.failf(p, "optional flag (%d bytes) not dominated by an ensure-space check", op.Wire)
			}
			cur.advance(op.Wire)
			// The body provisions itself (grouping flushes at Opt).
			v.verifyOps(op.Body, p+".body", space{}, unknownCursor(), elem)
			cur.loseTrack()
			sp = space{}

		case *mir.Switch:
			v.checkSwitch(op, &sp, &cur, p, elem)

		case *mir.Chunk:
			v.checkChunk(op, &cur, p)
			for j, it := range op.Items {
				if it.IsLen && it.Val != nil {
					v.checkElemMin(ops, it.Val, it.ElemMin, fmt.Sprintf("%s.items[%d]", p, j))
				}
			}
			if !sp.debit(op.Size) {
				v.failf(p, "chunk of %d bytes not dominated by an ensure-space check", op.Size)
			}

		case *mir.CallSub:
			if op.Sub < 0 {
				v.failf(p, "call of negative subprogram index %d", op.Sub)
			}
			cur.loseTrack()
			sp = space{}

		default:
			v.failf(p, "unknown op %T", op)
		}
	}
	return sp
}

func (v *mirVerifier) checkAtomWidth(a wire.Atom, w int, elem bool, path string) {
	want := v.f.WireSize(a)
	if elem {
		// Loop-body atoms transfer at the array-element width (formats
		// may pack char/octet elements tighter than stand-alone atoms);
		// inlined aggregate elements keep stand-alone widths.
		if w == v.f.ArrayElemSize(a) {
			return
		}
	}
	if w != want {
		v.failf(path, "%s atom encoded as %d bytes, format wants %d", a.Kind, w, want)
	}
}

// checkPlacement verifies one atom transfer: alignment at the current
// position and coverage by a dominating ensure-space check.
func (v *mirVerifier) checkPlacement(cur *cursor, a wire.Atom, w int, sp *space, path string) {
	need := v.f.Align(a)
	if cur.misaligned(need) {
		v.failf(path, "%s atom at offset %d violates %d-byte alignment", a.Kind, cur.off, need)
	}
	if !sp.debit(w) {
		v.failf(path, "%d-byte transfer not dominated by an ensure-space check", w)
	}
	cur.advance(w)
}

// checkElemMin holds a length item's count guard against the payload
// op that follows it among siblings: the decoder rejects
// count x elemMin > remaining, so elemMin above what one element
// provably transfers would refuse well-formed messages.
func (v *mirVerifier) checkElemMin(siblings []mir.Op, val mir.Ref, elemMin int, path string) {
	if elemMin == 0 {
		return // no guard beyond the decoder's own count <= remaining
	}
	proven := 0
	switch pl := mir.Payload(siblings, val).(type) {
	case *mir.Bulk:
		proven = pl.ElemWire
	case *mir.Loop:
		proven = v.minTransfer(pl.Body, map[int]bool{})
	}
	if elemMin < 0 || elemMin > proven {
		v.failf(path, "count guard assumes %d bytes/element of %s, only %d provable", elemMin, val, proven)
	}
}

// minTransfer is the least number of bytes ops move across the wire,
// counted from the transfer ops (never from Ensure ops, which is where
// the optimizer gets its figure): dynamic payloads and optionals at
// zero, a union at its discriminator plus its cheapest arm, a
// recursive subprogram at zero.
func (v *mirVerifier) minTransfer(ops []mir.Op, active map[int]bool) int {
	n := 0
	for _, op := range ops {
		switch op := op.(type) {
		case *mir.Item:
			n += op.Wire
		case *mir.ConstItem:
			n += op.Wire
		case *mir.LenItem:
			n += op.Wire
		case *mir.Chunk:
			n += op.Size
		case *mir.Bulk:
			if op.Count > 0 {
				n += op.Count * op.ElemWire
			}
		case *mir.Loop:
			if op.Count > 0 {
				n += op.Count * v.minTransfer(op.Body, active)
			}
		case *mir.Opt:
			n += op.Wire
		case *mir.Switch:
			arms := make([][]mir.Op, 0, len(op.Cases)+1)
			for _, c := range op.Cases {
				arms = append(arms, c.Body)
			}
			if op.HasDefault {
				arms = append(arms, op.Default)
			}
			least := -1
			for _, arm := range arms {
				if a := v.minTransfer(arm, active); least < 0 || a < least {
					least = a
				}
			}
			n += op.Wire
			if least > 0 {
				n += least
			}
		case *mir.CallSub:
			if op.Sub >= 0 && op.Sub < len(v.subs) && !active[op.Sub] {
				active[op.Sub] = true
				n += v.minTransfer(v.subs[op.Sub].Ops, active)
				delete(active, op.Sub)
			}
		}
	}
	return n
}

// staticNeed sums the unchecked bytes a region consumes beyond its own
// Ensure credits; ok=false when the region contains dynamic ops (so no
// static bound exists). It mirrors the grouping pass's staticCost.
func staticNeed(ops []mir.Op) (int, bool) {
	credit, need := 0, 0
	for _, op := range ops {
		switch op := op.(type) {
		case *mir.Ensure:
			credit += op.Bytes
		case *mir.Item:
			need += op.Wire
		case *mir.ConstItem:
			need += op.Wire
		case *mir.LenItem:
			need += op.Wire
		case *mir.Align:
			need += op.N - 1
		case *mir.Chunk:
			need += op.Size
		case *mir.Bulk:
			if op.Count < 0 {
				return 0, false
			}
			need += op.Count * op.ElemWire
		default:
			return 0, false
		}
	}
	n := need - credit
	if n < 0 {
		n = 0
	}
	return n, true
}

// armNeed prices one absorbed switch arm the way the grouping pass did
// when it hoisted the arm into the enclosing ensure: static transfers at
// their wire size, align pads at N-1, dynamic bulks at their declared
// bound. ok=false when the arm contains constructs grouping never
// absorbs (nested control flow, unbounded transfers), in which case the
// switch was flushed and its arms provision themselves.
func armNeed(ops []mir.Op) (int, bool) {
	credit, need := 0, 0
	for _, op := range ops {
		switch op := op.(type) {
		case *mir.Ensure:
			credit += op.Bytes
		case *mir.Item:
			need += op.Wire
		case *mir.ConstItem:
			need += op.Wire
		case *mir.LenItem:
			need += op.Wire
		case *mir.Align:
			need += op.N - 1
		case *mir.Chunk:
			need += op.Size
		case *mir.Bulk:
			if op.Count >= 0 {
				need += op.Count * op.ElemWire
			} else if bound, ok := bulkBound(op); ok {
				need += bound * op.ElemWire
			} else {
				return 0, false
			}
		default:
			return 0, false
		}
	}
	n := need - credit
	if n < 0 {
		n = 0
	}
	return n, true
}

func (v *mirVerifier) checkBulk(op *mir.Bulk, sp *space, cur *cursor, path string) {
	// Byte-identity: bulk transfers flat-copy (or stride-convert) the
	// element payload, which is only meaningful for atomic elements
	// whose array encoding matches the wire width the op claims.
	v.checkAtomWidth(op.Atom, op.ElemWire, true, path)
	if op.Pres != nil {
		e := resolveRef(op.Pres)
		if e != nil && e.Mint != nil {
			if _, _, ok := atomMint(e.Mint); !ok {
				v.failf(path, "bulk copy of non-atomic element %s is not byte-identical", e.Mint)
			}
		}
	}
	if op.Val == nil {
		v.failf(path, "bulk transfer with no value ref")
	}
	// Space: a fixed-count bulk draws on the static budget; a dynamic
	// bulk needs its EnsureDyn credit or a bound-provisioned budget.
	if op.Count >= 0 {
		if !sp.debit(op.Count * op.ElemWire) {
			v.failf(path, "bulk transfer of %d bytes not dominated by an ensure-space check", op.Count*op.ElemWire)
		}
		cur.advance(op.Count * op.ElemWire)
		return
	}
	if sp.takeDyn(op.Val.String()) {
		cur.loseTrack()
		return
	}
	// Grouping may have absorbed the dynamic check by provisioning the
	// array's declared bound up front.
	if bound, ok := bulkBound(op); ok && sp.debit(bound*op.ElemWire) {
		cur.loseTrack()
		return
	}
	v.failf(path, "dynamic bulk transfer of %s not dominated by an ensure-space check", op.Val)
	cur.loseTrack()
}

// bulkBound extracts the declared element bound of a dynamic bulk from
// its presenting array node.
func bulkBound(op *mir.Bulk) (int, bool) {
	over := resolveRef(op.OverPres)
	if over == nil || over.Mint == nil {
		return 0, false
	}
	arr, ok := mint.Deref(over.Mint).(*mint.Array)
	if !ok {
		return 0, false
	}
	if arr.Length.Range == 0 || arr.Length.Range >= uint64(0xFFFFFFFF) {
		return 0, false
	}
	return int(arr.Length.Range), true
}

func (v *mirVerifier) checkLoop(op *mir.Loop, sp *space, cur *cursor, path string) {
	if op.Over == nil {
		v.failf(path, "loop with no value ref")
	}
	need, static := staticNeed(op.Body)
	if static && need > 0 {
		// The body's checks were hoisted into an enclosing grouped
		// ensure: the loop draws count×need from the outer budget.
		total, ok := 0, false
		if op.Count >= 0 {
			total, ok = op.Count*need, true
		} else if bound, bOK := loopBound(op); bOK {
			total, ok = bound*need, true
		}
		if !ok || !sp.debit(total) {
			v.failf(path, "loop body needs %d bytes/iteration with no dominating ensure-space check", need)
		}
	} else {
		// Self-contained body: verify it independently at an unknown
		// position with no inherited budget.
		v.verifyOps(op.Body, path+".body", space{}, unknownCursor(), true)
	}
	if op.Count < 0 {
		cur.loseTrack()
	} else if static {
		cost := 0
		for _, b := range op.Body {
			switch b := b.(type) {
			case *mir.Item:
				cost += b.Wire
			case *mir.ConstItem:
				cost += b.Wire
			case *mir.LenItem:
				cost += b.Wire
			case *mir.Chunk:
				cost += b.Size
			case *mir.Bulk:
				cost += b.Count * b.ElemWire
			case *mir.Align:
				cost = -1
			}
			if cost < 0 {
				break
			}
		}
		if cost >= 0 {
			cur.advance(op.Count * cost)
		} else {
			cur.loseTrack()
		}
	} else {
		cur.loseTrack()
	}
}

func loopBound(op *mir.Loop) (int, bool) {
	over := resolveRef(op.OverPres)
	if over == nil || over.Mint == nil {
		return 0, false
	}
	arr, ok := mint.Deref(over.Mint).(*mint.Array)
	if !ok || arr.Length.Range == 0 || arr.Length.Range >= uint64(0xFFFFFFFF) {
		return 0, false
	}
	return int(arr.Length.Range), true
}

func (v *mirVerifier) checkSwitch(op *mir.Switch, sp *space, cur *cursor, path string, elem bool) {
	if op.On == nil {
		v.failf(path, "switch with no discriminator ref")
	}
	v.checkAtomWidth(op.Atom, op.Wire, false, path)
	if cur.misaligned(v.f.Align(op.Atom)) {
		v.failf(path, "switch discriminator at offset %d violates %d-byte alignment", cur.off, v.f.Align(op.Atom))
	}
	if !sp.debit(op.Wire) {
		v.failf(path, "switch discriminator (%d bytes) not dominated by an ensure-space check", op.Wire)
	}
	cur.advance(op.Wire)

	seen := map[int64]bool{}
	arms := make([][]mir.Op, 0, len(op.Cases)+1)
	for i, c := range op.Cases {
		if len(c.Values) == 0 {
			v.failf(fmt.Sprintf("%s.cases[%d]", path, i), "switch arm with no labels")
		}
		for _, val := range c.Values {
			if seen[val] {
				v.failf(fmt.Sprintf("%s.cases[%d]", path, i), "duplicate switch label %d", val)
			}
			seen[val] = true
		}
		arms = append(arms, c.Body)
	}
	if op.HasDefault {
		arms = append(arms, op.Default)
	}

	// Exactly one arm executes, drawing on the inherited budget: when
	// the grouping pass absorbed the switch it hoisted the widest arm's
	// bound into the enclosing ensure (bounded dynamic bulks priced at
	// their declared bound, exactly as boundOfBulk does). Verify each
	// arm against its own copy of the budget and position, then account
	// the shared budget: debit the absorbed maximum when every arm is
	// boundable, otherwise assume nothing survives the branch.
	maxNeed, absorbable := 0, true
	for _, body := range arms {
		need, ok := armNeed(body)
		if !ok {
			absorbable = false
			break
		}
		if need > maxNeed {
			maxNeed = need
		}
	}
	for i, body := range arms {
		label := fmt.Sprintf("%s.cases[%d]", path, i)
		if op.HasDefault && i == len(arms)-1 {
			label = path + ".default"
		}
		v.verifyOps(body, label, *sp, *cur, elem)
	}
	if absorbable {
		if maxNeed > 0 && !sp.debit(maxNeed) {
			v.failf(path, "absorbed switch needs %d bytes with no dominating ensure-space check", maxNeed)
		}
	} else {
		*sp = space{}
	}
	cur.loseTrack()
}

// checkChunk validates one fixed-layout region: in-bounds, contiguous
// (chunkPass packs runs exactly), aligned while the position is known,
// and — in strict mode — pairwise disjoint.
func (v *mirVerifier) checkChunk(op *mir.Chunk, cur *cursor, path string) {
	if v.c != nil {
		v.c.MirChunks++
	}
	if len(op.Items) < 2 {
		v.failf(path, "chunk with %d items (chunking requires at least 2)", len(op.Items))
	}
	covered := 0
	for i, it := range op.Items {
		p := fmt.Sprintf("%s.items[%d]", path, i)
		if it.Off < 0 || it.Off+it.Wire > op.Size {
			v.failf(p, "chunk item [%d,%d) outside chunk of %d bytes", it.Off, it.Off+it.Wire, op.Size)
			continue
		}
		if it.Off != covered {
			v.failf(p, "chunk item at offset %d, expected %d (items must be contiguous)", it.Off, covered)
		}
		covered = it.Off + it.Wire
		if it.IsLen {
			if it.Wire != v.f.LenSize() {
				v.failf(p, "length prefix is %d bytes, format wants %d", it.Wire, v.f.LenSize())
			}
		} else {
			v.checkAtomWidth(it.Atom, it.Wire, false, p)
		}
		if it.Val == nil && it.Const == nil {
			v.failf(p, "chunk item carries neither a value nor a constant")
		}
		if it.Val != nil && it.Const != nil {
			v.failf(p, "chunk item carries both a value and a constant")
		}
		if cur.known {
			a := v.f.Align(it.Atom)
			if a > 1 && (cur.off+it.Off)%a != 0 {
				v.failf(p, "%s atom at offset %d violates %d-byte alignment", it.Atom.Kind, cur.off+it.Off, a)
			}
		}
	}
	if covered != op.Size {
		v.failf(path, "chunk claims %d bytes but items cover %d", op.Size, covered)
	}
	if v.strict {
		// O(n²) pairwise overlap check: redundant with contiguity when
		// that holds, decisive when it does not.
		for i := 0; i < len(op.Items); i++ {
			for j := i + 1; j < len(op.Items); j++ {
				a, b := op.Items[i], op.Items[j]
				if a.Off < b.Off+b.Wire && b.Off < a.Off+a.Wire {
					v.failf(fmt.Sprintf("%s.items[%d]", path, j),
						"chunk item [%d,%d) overlaps item %d [%d,%d)",
						b.Off, b.Off+b.Wire, i, a.Off, a.Off+a.Wire)
				}
			}
		}
	}
	cur.advance(op.Size)
}

// checkClassify cross-checks the program's storage classification
// against its op layout.
func (v *mirVerifier) checkClassify(prog *mir.Program, f wire.Format, name string) {
	dynamic := hasDynamicOps(prog.Ops)
	if dynamic && prog.Class == mir.FixedSize {
		v.failf(name, "program classified fixed-size but contains dynamic ops")
		return
	}
	if dynamic || hasSubCalls(prog.Ops) {
		return
	}
	// Fully static program: replay the exact byte count.
	cur := newCursor(f)
	if total, ok := staticTotal(prog.Ops, &cur); ok {
		if prog.Class != mir.FixedSize {
			v.failf(name, "fully static program classified %s", prog.Class)
		}
		if prog.FixedBytes != total {
			v.failf(name, "classified as %d fixed bytes but ops produce %d", prog.FixedBytes, total)
		}
	}
}

// staticTotal replays a fully static op list and returns the exact
// number of payload bytes it produces.
func staticTotal(ops []mir.Op, cur *cursor) (int, bool) {
	for _, op := range ops {
		switch op := op.(type) {
		case *mir.Ensure:
			// no bytes
		case *mir.Align:
			cur.align(op.N)
		case *mir.Item:
			cur.advance(op.Wire)
		case *mir.ConstItem:
			cur.advance(op.Wire)
		case *mir.Chunk:
			cur.advance(op.Size)
		case *mir.Bulk:
			if op.Count < 0 {
				return 0, false
			}
			cur.advance(op.Count * op.ElemWire)
		case *mir.Loop:
			if op.Count < 0 {
				return 0, false
			}
			start := cur.off
			if _, ok := staticTotal(op.Body, cur); !ok {
				return 0, false
			}
			per := cur.off - start
			cur.advance((op.Count - 1) * per)
			if op.Count == 0 {
				cur.off = start
			}
		default:
			return 0, false
		}
	}
	return cur.off, true
}

func hasDynamicOps(ops []mir.Op) bool {
	for _, op := range ops {
		switch op := op.(type) {
		case *mir.LenItem, *mir.EnsureDyn, *mir.Opt, *mir.Switch:
			return true
		case *mir.Bulk:
			if op.Count < 0 {
				return true
			}
		case *mir.Loop:
			if op.Count < 0 || hasDynamicOps(op.Body) {
				return true
			}
		case *mir.Chunk:
			for _, it := range op.Items {
				if it.IsLen {
					return true
				}
			}
		}
	}
	return false
}

func hasSubCalls(ops []mir.Op) bool {
	for _, op := range ops {
		switch op := op.(type) {
		case *mir.CallSub:
			return true
		case *mir.Loop:
			if hasSubCalls(op.Body) {
				return true
			}
		case *mir.Opt:
			if hasSubCalls(op.Body) {
				return true
			}
		case *mir.Switch:
			for _, c := range op.Cases {
				if hasSubCalls(c.Body) {
					return true
				}
			}
			if hasSubCalls(op.Default) {
				return true
			}
		}
	}
	return false
}

// atomMint mirrors the lowerer's atomOf: whether a MINT type encodes as
// a single wire atom.
func atomMint(m mint.Type) (wire.Atom, *uint64, bool) {
	switch m := mint.Deref(m).(type) {
	case *mint.Integer:
		bits, signed := m.Bits()
		k := wire.UInt
		if signed {
			k = wire.SInt
		}
		if m.Range == 0 {
			v := uint64(m.Min)
			return wire.Atom{Kind: k, Bits: 32}, &v, true
		}
		return wire.Atom{Kind: k, Bits: bits}, nil, true
	case *mint.Scalar:
		switch m.Kind {
		case mint.Boolean:
			return wire.Bool, nil, true
		case mint.Char8:
			return wire.Char, nil, true
		case mint.Float32:
			return wire.F32, nil, true
		case mint.Float64:
			return wire.F64, nil, true
		}
	case *mint.Const:
		a, _, ok := atomMint(m.Of)
		if !ok {
			return wire.Atom{}, nil, false
		}
		v := uint64(m.Value)
		return a, &v, true
	}
	return wire.Atom{}, nil, false
}
