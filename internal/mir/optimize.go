package mir

import "flick/internal/wire"

// The optimizer passes. Order matters: bulk conversion first (it rewrites
// loops), then ensure grouping (it absorbs the rewritten checks), then
// chunking (it merges the statically placed survivors).

func optimize(prog *Program, f wire.Format, opts Options) {
	// st is always non-nil inside the passes; a throwaway sink stands
	// in when the caller did not ask for counters.
	st := opts.Stats
	if st == nil {
		st = new(Stats)
	}
	st.Programs++
	run := func(ops []Op) []Op {
		if opts.Memcpy {
			ops = memcpyPass(ops, st)
		}
		if opts.GroupEnsures {
			ops = groupPass(ops, opts.BoundedThreshold, prog.Dir, st)
		}
		if opts.Chunk {
			ops = chunkPass(ops, st)
		}
		return ops
	}
	prog.Ops = run(prog.Ops)
	for _, s := range prog.Subs {
		s.Ops = run(s.Ops)
	}
	// The alias pass annotates the (final) op layout with zero-copy
	// proofs; it rewrites nothing, so it runs for every option set.
	aliasPass(prog, f, st)
	if prog.Dir == Unmarshal {
		annotateElemMins(prog)
	}
}

// --- memcpy / bulk conversion -------------------------------------------

// memcpyPass converts element loops over atomic types into Bulk transfers
// with a single dynamic space check. It recurses into nested bodies.
func memcpyPass(ops []Op, st *Stats) []Op {
	out := make([]Op, 0, len(ops))
	for _, op := range ops {
		Bodies(op, func(body *[]Op) { *body = memcpyPass(*body, st) })
		if op, isLoop := op.(*Loop); isLoop {
			if item, ok := atomicLoopBody(op); ok {
				st.BulkArrays++
				if op.Count >= 0 {
					out = append(out,
						&Ensure{Bytes: op.Count * item.Wire},
						&Bulk{Val: op.Over, Atom: item.Atom, ElemWire: item.Wire, Count: op.Count, Pres: item.Pres, OverPres: op.OverPres})
				} else {
					out = append(out,
						&EnsureDyn{PerElem: item.Wire, Count: op.Over, Pres: op.OverPres},
						&Bulk{Val: op.Over, Atom: item.Atom, ElemWire: item.Wire, Count: -1, Pres: item.Pres, OverPres: op.OverPres})
				}
				continue
			}
		}
		out = append(out, op)
	}
	return out
}

// atomicLoopBody matches a loop body of exactly [Ensure, Item(elem)]: a
// per-element scalar transfer eligible for bulk copying.
func atomicLoopBody(l *Loop) (*Item, bool) {
	if len(l.Body) != 2 {
		return nil, false
	}
	if _, isEnsure := l.Body[0].(*Ensure); !isEnsure {
		return nil, false
	}
	item, isItem := l.Body[1].(*Item)
	if !isItem {
		return nil, false
	}
	elem, isElem := item.Val.(*Elem)
	if !isElem || elem.Var != l.Var {
		return nil, false
	}
	return item, true
}

// --- ensure grouping ------------------------------------------------------

// groupPass implements the paper's marshal buffer management: one space
// check per maximal statically bounded segment. Fixed-count loops and
// all-static switches are absorbed when they fit under the threshold.
//
// The two directions differ fundamentally: marshal Grow may over-reserve
// freely (the paper ensures the *maximum* size of bounded segments), but
// unmarshal Ensure is a truncation check and must be exact — a valid
// message may end immediately after its last datum. So on the unmarshal
// side only exactly-sized runs group: Align ops (whose runtime padding is
// data-dependent) and variable-size constructs flush the run instead of
// being absorbed.
func groupPass(ops []Op, threshold int, dir Dir, st *Stats) []Op {
	exact := dir == Unmarshal
	var out []Op
	var run []Op
	runBytes := 0
	// dyn is the dynamic check emitted just ahead of the current run
	// (marshal only; the run begins with its bulk). Checks do not add
	// up — a Grow(k) after GrowDyn(n) tests max(n, k) bytes where n+k
	// are written — so the run's bytes fold into dyn's base instead of
	// getting a check of their own: one check, and it is the sum.
	var dyn *EnsureDyn
	flush := func() {
		switch {
		case runBytes == 0:
		case dyn != nil:
			dyn.Base += runBytes
		default:
			st.SpaceChecksAfter++
			out = append(out, &Ensure{Bytes: runBytes})
		}
		out = append(out, run...)
		run, runBytes, dyn = nil, 0, nil
	}
	for i := 0; i < len(ops); i++ {
		// Nested lists group first; what happens to the op then depends
		// on what its grouped bodies still need.
		Bodies(ops[i], func(body *[]Op) { *body = groupPass(*body, threshold, dir, st) })
		switch op := ops[i].(type) {
		case *Ensure:
			st.SpaceChecksBefore++
			runBytes += op.Bytes
		case *Align:
			if exact {
				// The pad consumed is data-dependent; the Align op
				// performs its own bounds check, so it opens a new
				// exactly-counted run.
				flush()
				out = append(out, op)
			} else {
				runBytes += op.N - 1
				run = append(run, op)
			}
		case *Item, *ConstItem, *LenItem:
			run = append(run, ops[i])
		case *Bulk:
			run = append(run, op)
			if exact && op.Count < 0 {
				// A run's check is emitted ahead of the whole run, and
				// checks do not add up: with the bulk in the run, the
				// Ensure(k) for what follows it would be tested before
				// its n payload bytes are consumed and pass with
				// max(n, k) bytes left where n+k are read. End the run
				// at the bulk, so the tail is checked after it.
				flush()
			}
		case *EnsureDyn:
			st.SpaceChecksBefore++
			// Marshal only: a bounded Bulk under the threshold can be
			// provisioned by its bound up front.
			if !exact && i+1 < len(ops) {
				if b, isBulk := ops[i+1].(*Bulk); isBulk && b.Count < 0 {
					if bound := boundOfBulk(run, b); bound > 0 && bound*op.PerElem <= threshold {
						runBytes += bound*op.PerElem + op.Base
						continue
					}
				}
			}
			flush()
			st.SpaceChecksAfter++
			if !exact {
				folded := *op
				op, dyn = &folded, &folded
			}
			out = append(out, op)
		case *Loop:
			if cost, static := staticCost(op.Body); static {
				total := 0
				fits := false
				if op.Count >= 0 {
					total = op.Count * cost
					fits = total <= threshold || op.Count == 0
				} else if !exact {
					if bound := boundOfLoop(run, op); bound > 0 && bound*cost <= threshold {
						total = bound * cost
						fits = true
					}
				}
				if fits {
					runBytes += total
					op.Body = stripLeadingEnsure(op.Body, st)
					run = append(run, op)
					continue
				}
			}
			flush()
			out = append(out, op)
		case *Switch:
			if maxArm, static := staticSwitch(op); static && maxArm <= threshold && !exact {
				runBytes += maxArm
				Bodies(op, func(arm *[]Op) { *arm = stripLeadingEnsure(*arm, st) })
				run = append(run, op)
				continue
			}
			flush()
			out = append(out, op)
		default:
			flush()
			out = append(out, ops[i])
		}
	}
	flush()
	return out
}

// boundOfBulk finds the length bound for a dynamic bulk transfer from the
// LenItem earlier in the current run that names the same value.
func boundOfBulk(run []Op, b *Bulk) int {
	return boundOfVal(run, b.Val)
}

func boundOfLoop(run []Op, l *Loop) int {
	return boundOfVal(run, l.Over)
}

func boundOfVal(run []Op, val Ref) int {
	want := val.String()
	for i := len(run) - 1; i >= 0; i-- {
		if li, ok := run[i].(*LenItem); ok && li.Val.String() == want {
			if li.Bound > 0 && li.Bound < uint64(0xFFFFFFFF) {
				return int(li.Bound)
			}
			return 0
		}
	}
	return 0
}

// staticCost sums the provisioning of a grouped op list: a body is static
// when its only space requirements are Ensure ops (everything else was
// provisioned by them).
func staticCost(ops []Op) (int, bool) {
	total := 0
	for _, op := range ops {
		switch op := op.(type) {
		case *Ensure:
			total += op.Bytes
		case *Item, *ConstItem, *LenItem, *Align, *Bulk, *Chunk:
			// provisioned by a preceding Ensure in the same list
		default:
			return 0, false
		}
	}
	return total, true
}

func staticSwitch(sw *Switch) (int, bool) {
	maxArm := 0
	for _, c := range sw.Cases {
		cost, static := staticCost(c.Body)
		if !static {
			return 0, false
		}
		if cost > maxArm {
			maxArm = cost
		}
	}
	if sw.HasDefault {
		cost, static := staticCost(sw.Default)
		if !static {
			return 0, false
		}
		if cost > maxArm {
			maxArm = cost
		}
	}
	return maxArm, true
}

// stripLeadingEnsure drops the Ensure ops of a body absorbed into an
// enclosing grouped check; the recursive groupPass already counted
// them as emitted, so absorption un-counts them.
func stripLeadingEnsure(ops []Op, st *Stats) []Op {
	var out []Op
	for _, op := range ops {
		if _, isEnsure := op.(*Ensure); isEnsure {
			st.SpaceChecksAfter--
			continue
		}
		out = append(out, op)
	}
	return out
}

// --- chunking --------------------------------------------------------------

// chunkPass merges maximal runs of statically placed atoms into Chunk
// regions addressed by constant offsets (the paper's chunk-pointer
// optimization, a form of common subexpression elimination on the buffer
// cursor). An Align op starts a new chunk; everything dynamic ends one.
func chunkPass(ops []Op, st *Stats) []Op {
	var out []Op
	var items []ChunkItem
	off := 0
	flush := func() {
		if len(items) >= 2 {
			st.Chunks++
			st.ChunkItems += len(items)
			st.ChunkBytes += off
			out = append(out, &Chunk{Size: off, Items: items})
		} else {
			// A one-item chunk is just the item.
			for _, it := range items {
				out = append(out, chunkItemToOp(it))
			}
		}
		items, off = nil, 0
	}
	for _, op := range ops {
		switch op := op.(type) {
		case *Item:
			items = append(items, ChunkItem{Off: off, Atom: op.Atom, Wire: op.Wire, Val: op.Val, Pres: op.Pres})
			off += op.Wire
		case *ConstItem:
			v := op.Value
			items = append(items, ChunkItem{Off: off, Atom: op.Atom, Wire: op.Wire, Const: &v})
			off += op.Wire
		case *LenItem:
			items = append(items, ChunkItem{
				Off: off, Atom: wire.U32, Wire: op.Wire, Val: op.Val,
				IsLen: true, Bound: op.Bound, Nul: op.Nul, Pres: op.Pres,
			})
			off += op.Wire
		case *Align:
			flush()
			out = append(out, op)
		default:
			Bodies(op, func(body *[]Op) { *body = chunkPass(*body, st) })
			flush()
			out = append(out, op)
		}
	}
	flush()
	return out
}

func chunkItemToOp(it ChunkItem) Op {
	switch {
	case it.Const != nil:
		return &ConstItem{Atom: it.Atom, Wire: it.Wire, Value: *it.Const}
	case it.IsLen:
		return &LenItem{Wire: it.Wire, Val: it.Val, Bound: it.Bound, Nul: it.Nul, Pres: it.Pres}
	default:
		return &Item{Atom: it.Atom, Wire: it.Wire, Val: it.Val, Pres: it.Pres}
	}
}
