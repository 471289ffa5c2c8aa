package mir

import "flick/internal/wire"

// The unmarshal-side storage plan: the paper's §3 parameter management.
// Decoded strings and byte sequences are the only unmarshaled data a Go
// stub must obtain storage for one datum at a time; this pass decides,
// per message, whether they can instead be carved from one slab
// obtained once, and sizes that slab without a pre-scan:
//
//	capacity = unread wire bytes − the static minimum of everything
//	           unread that is not string/byte-sequence payload
//
// The subtrahend is what ensure-space grouping already knows — the sum
// of the Ensure ops, per loop iteration times the decoded count, plus
// the fixed tail — so the capacity can never exceed the received
// message, and it is exact up to alignment padding whenever the plan is
// licensed: a region is licensed only if every variable-size construct
// in it is such payload or the one loop whose count has just been
// decoded. Anything else (a later dynamic loop, an optional, a union, a
// recursive subprogram, an arena-aliased region) would be priced at
// zero and inflate the slab by its own wire size, so its values keep
// their per-datum allocation instead — as does a message's lone string,
// for which a slab buys nothing.

// SlabPlan is a licensed storage plan for one unmarshal program.
type SlabPlan struct {
	// At is the op of the program's root list the slab is provisioned
	// in front of: the dynamic loop whose elements hold the sites (its
	// length item is decoded by then), or the head of the static run
	// leading up to the first site.
	At Op
	// Count, when non-nil, is the counted value At iterates over; its
	// decoded length multiplies PerElem.
	Count Ref
	// PerElem is the static minimum of one iteration's non-payload
	// bytes; Tail is the same minimum for the rest of the message (and
	// for At itself when its trip count is static).
	PerElem int
	Tail    int
}

// Why a region is not licensed (a lone value is decided by count).
const (
	slabVariable  = iota // variable-size data that is not byte-data payload shares the region
	slabRecursive        // the region calls a recursive subprogram
)

// region is what measuring an op list yields.
type region struct {
	// fixed is the static minimum of the wire bytes that are not
	// byte-data payload.
	fixed int
	// sites counts byte-data values; many says one of them repeats (it
	// sits in a loop), so even a single site is worth a slab.
	sites int
	many  bool
	// impure is set when fixed under-prices the non-payload bytes;
	// why is the fallback reason.
	impure bool
	why    int
}

func (r *region) taint(why int) {
	if !r.impure {
		r.impure, r.why = true, why
	}
}

func (r *region) add(o region) {
	r.fixed += o.fixed
	r.sites += o.sites
	r.many = r.many || o.many
	if o.impure {
		r.taint(o.why)
	}
}

// byteData reports whether op transfers the payload of a string or
// byte sequence of run-time length: the data a Go stub would otherwise
// allocate per datum. With the memcpy optimization that is a dynamic
// 1-byte Bulk; without it, the element loop the Bulk would have
// replaced.
func byteData(op Op) bool {
	switch op := op.(type) {
	case *Bulk:
		return op.Count < 0 && op.ElemWire == 1 && op.Atom.Kind != wire.BoolAtom
	case *Loop:
		item, ok := atomicLoopBody(op)
		return ok && op.Count < 0 && item.Wire == 1 && item.Atom.Kind != wire.BoolAtom
	}
	return false
}

// Payload returns the op among ops that transfers the elements of the
// counted value val — the Bulk or Loop its length item announces — or
// nil when the list has none.
func Payload(ops []Op, val Ref) Op {
	want := val.String()
	for _, op := range ops {
		switch op := op.(type) {
		case *Bulk:
			if op.Count < 0 && op.Val.String() == want {
				return op
			}
		case *Loop:
			if op.Count < 0 && op.Over.String() == want {
				return op
			}
		}
	}
	return nil
}

type planner struct {
	prog *Program
	// skip reports byte-data bulks whose storage comes from elsewhere
	// (arena views under -zerocopy): not sites, and their payload is
	// variable data the slab must not be sized for.
	skip func(*Bulk) bool
	// subs memoizes measure per subprogram; visiting cuts recursion.
	subs     map[int]region
	visiting map[int]bool
}

// measure prices an op list. The Ensure ops carry the whole static
// cost: on the unmarshal side they are exact truncation checks, so
// every transferred byte that is not dynamic payload is counted by
// exactly one of them.
func (p *planner) measure(ops []Op) region {
	var r region
	for _, op := range ops {
		switch op := op.(type) {
		case *Ensure:
			r.fixed += op.Bytes
		case *EnsureDyn:
			r.fixed += op.Base
		case *Bulk:
			switch {
			case op.Count >= 0:
			case byteData(op) && !p.skip(op):
				r.sites++
			default:
				r.taint(slabVariable)
			}
		case *Loop:
			if byteData(op) {
				r.sites++
				continue
			}
			body := p.measure(op.Body)
			if op.Count < 0 {
				// Its count is not known where the slab is sized;
				// PlanStorage lifts this for the loop it provisions at.
				body.fixed = 0
				body.taint(slabVariable)
			} else {
				body.fixed *= op.Count
			}
			body.many = body.many || body.sites > 0
			r.add(body)
		case *Opt:
			body := p.measure(op.Body)
			body.fixed = 0
			body.taint(slabVariable)
			r.add(body)
		case *Switch:
			arms := make([][]Op, 0, len(op.Cases)+1)
			for _, c := range op.Cases {
				arms = append(arms, c.Body)
			}
			if op.HasDefault {
				arms = append(arms, op.Default)
			}
			least := -1
			for _, arm := range arms {
				a := p.measure(arm)
				if least < 0 || a.fixed < least {
					least = a.fixed
				}
				a.fixed = 0
				r.add(a)
			}
			if least > 0 {
				r.fixed += least
			}
			r.taint(slabVariable)
		case *CallSub:
			r.add(p.measureSub(op.Sub))
		}
	}
	return r
}

func (p *planner) measureSub(idx int) region {
	if r, ok := p.subs[idx]; ok {
		return r
	}
	if p.visiting[idx] || idx < 0 || idx >= len(p.prog.Subs) {
		return region{impure: true, why: slabRecursive}
	}
	p.visiting[idx] = true
	r := p.measure(p.prog.Subs[idx].Ops)
	delete(p.visiting, idx)
	p.subs[idx] = r
	return r
}

// elemMins annotates every length item of ops (recursively) with the
// minimum wire size of one element of the value it counts, so the
// decoder can reject a count the rest of the message cannot hold
// before anything is allocated for it. measure's fixed is a sound lower
// bound for impure bodies too: every construct it cannot price
// contributes zero or its cheapest alternative.
func (p *planner) elemMins(ops []Op) {
	elemMin := func(val Ref) int {
		switch pl := Payload(ops, val).(type) {
		case *Bulk:
			return pl.ElemWire
		case *Loop:
			return p.measure(pl.Body).fixed
		}
		return 0
	}
	for _, op := range ops {
		switch op := op.(type) {
		case *LenItem:
			op.ElemMin = elemMin(op.Val)
		case *Chunk:
			for i := range op.Items {
				if it := &op.Items[i]; it.IsLen {
					it.ElemMin = elemMin(it.Val)
				}
			}
		default:
			Bodies(op, func(body *[]Op) { p.elemMins(*body) })
		}
	}
}

func newPlanner(prog *Program, skip func(*Bulk) bool) *planner {
	if skip == nil {
		skip = func(*Bulk) bool { return false }
	}
	return &planner{prog: prog, skip: skip, subs: map[int]region{}, visiting: map[int]bool{}}
}

// annotateElemMins runs elemMins over an unmarshal program and its
// subprograms (part of optimize: every back end gets the bound).
func annotateElemMins(prog *Program) {
	p := newPlanner(prog, nil)
	p.elemMins(prog.Ops)
	for _, s := range prog.Subs {
		p.elemMins(s.Ops)
	}
}

// PlanStorage computes the storage plan of an unmarshal program: it
// sets prog.Slab when a region is licensed and marks the byte-data
// sites that carve from it (Bulk.Slab / Loop.Slab on the payload op,
// LenItem.Slab / ChunkItem.Slab on the length item that would have
// allocated). Sites inside subprograms are always marked — a
// subprogram's code is shared by every program that calls it, so it
// carves when its caller provisioned a slab and allocates when not (the
// runtime's carve falls back by itself). skip names byte-data bulks
// whose storage comes from elsewhere; nil skips none. st, when
// non-nil, receives the site counters.
func PlanStorage(prog *Program, skip func(*Bulk) bool, st *Stats) {
	if prog.Dir != Unmarshal {
		return
	}
	if st == nil {
		st = new(Stats)
	}
	p := newPlanner(prog, skip)
	for _, s := range prog.Subs {
		p.mark(s.Ops)
	}
	root := prog.Ops
	for i, op := range root {
		own := p.measure(root[i : i+1])
		if own.sites == 0 {
			continue
		}
		// Two shapes of provisioning point. A dynamic loop over
		// elements that hold sites: right in front of the loop, where
		// its count has just been decoded, so count x the body's
		// minimum prices it exactly. Anything else: in front of the
		// static run that leads up to the op (the run holds the site's
		// own length item, and its Ensure ops price it).
		plan := &SlabPlan{}
		var all region
		start := i
		if loop, ok := op.(*Loop); ok && loop.Count < 0 && !byteData(loop) {
			all = p.measure(loop.Body)
			plan.Count, plan.PerElem = loop.Over, all.fixed
			all.fixed = 0
			all.many = true
		} else {
			for start > 0 && staticOp(root[start-1]) {
				start--
			}
			all = p.measure(root[start : i+1])
		}
		all.add(p.measure(root[i+1:]))
		switch {
		case all.impure && all.why == slabRecursive:
			st.SlabFallbackRecursive += own.sites
		case all.impure:
			st.SlabFallbackVariable += own.sites
		case all.sites < 2 && !all.many:
			st.SlabFallbackLone += own.sites
		default:
			plan.At, plan.Tail = root[start], all.fixed
			prog.Slab = plan
			st.SlabSites += all.sites
			p.mark(root[start:])
			return
		}
	}
}

// staticOp reports ops of statically known wire size (a dynamic bulk's
// EnsureDyn counts: its static part is its Base).
func staticOp(op Op) bool {
	switch op := op.(type) {
	case *Ensure, *EnsureDyn, *Align, *Item, *ConstItem, *LenItem, *Chunk:
		return true
	case *Bulk:
		return op.Count >= 0
	}
	return false
}

// mark flags the byte-data sites of ops: the payload ops, and the
// length items that announce them (found among the same siblings).
func (p *planner) mark(ops []Op) {
	site := func(val Ref) bool {
		pl := Payload(ops, val)
		if b, ok := pl.(*Bulk); ok && p.skip(b) {
			return false
		}
		return pl != nil && byteData(pl)
	}
	for _, op := range ops {
		switch op := op.(type) {
		case *LenItem:
			op.Slab = site(op.Val)
		case *Chunk:
			for i := range op.Items {
				if it := &op.Items[i]; it.IsLen {
					it.Slab = site(it.Val)
				}
			}
		case *Bulk:
			op.Slab = byteData(op) && !p.skip(op)
		case *Loop:
			if op.Slab = byteData(op); op.Slab {
				continue
			}
		}
		Bodies(op, func(body *[]Op) { p.mark(*body) })
	}
}
