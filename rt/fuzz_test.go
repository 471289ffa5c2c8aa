package rt

import "testing"

// Native fuzz harnesses for the Decoder's header and payload parsing.
// Run with e.g.
//
//	go test -fuzz=FuzzProtocolHeaders -fuzztime=30s ./rt
//
// The seed corpus is built from golden wire fixtures — valid frames
// written by each protocol's own encoder — so coverage starts beyond
// the magic checks instead of having to mutate its way to them.

// fuzzProtocols covers every wire protocol, GIOP in both byte orders.
func fuzzProtocols() []Protocol {
	return []Protocol{ONC{}, GIOP{}, GIOP{Little: true}, Mach{}, Fluke{}}
}

// goldenWire builds one valid request frame and one valid reply frame
// per protocol, each with a small payload behind the header.
func goldenWire() [][]byte {
	req := ReqHeader{XID: 7, Prog: 0x20000042, Vers: 1, Proc: 3,
		OpName: "send_ints", ObjectKey: []byte("bench")}
	rep := RepHeader{XID: 7, Status: ReplyOK}
	var frames [][]byte
	for _, p := range fuzzProtocols() {
		var e Encoder
		p.WriteRequest(&e, &req)
		e.PutU32BEC(0xdeadbeef)
		frames = append(frames, append([]byte(nil), e.Bytes()...))
		e.Reset()
		p.WriteReply(&e, &rep)
		e.PutU32BEC(0xdeadbeef)
		frames = append(frames, append([]byte(nil), e.Bytes()...))
	}
	return frames
}

// FuzzProtocolHeaders throws arbitrary bytes at every protocol's
// request and reply header parsers. The parsers' contract: never panic
// (every unchecked Next must be dominated by an Ensure — the runtime
// mirror of the MIR verifier's dominance invariant), never move the
// cursor past the buffer, and never report success on a poisoned
// decoder.
func FuzzProtocolHeaders(f *testing.F) {
	for _, frame := range goldenWire() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range fuzzProtocols() {
			d := NewDecoder(data)
			if _, err := p.ReadRequest(d); err == nil {
				if d.Err() != nil {
					t.Errorf("%s: ReadRequest succeeded on a poisoned decoder: %v", p.Name(), d.Err())
				}
				if d.Pos() > len(data) {
					t.Errorf("%s: ReadRequest cursor %d past end %d", p.Name(), d.Pos(), len(data))
				}
			}
			d = NewDecoder(data)
			if _, err := p.ReadReply(d); err == nil {
				if d.Err() != nil {
					t.Errorf("%s: ReadReply succeeded on a poisoned decoder: %v", p.Name(), d.Err())
				}
				if d.Pos() > len(data) {
					t.Errorf("%s: ReadReply cursor %d past end %d", p.Name(), d.Pos(), len(data))
				}
			}
		}
	})
}

// FuzzDecoderPayload uses the fuzz input twice: as an op stream driving
// a random walk over the Decoder primitives that generated unmarshal
// code performs (Ensure/Next, alignment, checked reads, counted
// lengths, slab provisioning and carving), and as the payload being
// decoded. Whatever the walk, the decoder must not panic, the cursor
// must stay inside the buffer, and the guarantees behind unchecked
// reads must hold: Ensure(n) == true means n bytes really remain, and a
// Len/CheckLen success means count x the element minimum fits without
// a further check (the hostile-count guard). The slab never outgrows
// the message, whatever it was asked for.
func FuzzDecoderPayload(f *testing.F) {
	for _, frame := range goldenWire() {
		f.Add(frame)
	}
	// Hostile counts against a per-element minimum (op%13 == 10; the
	// count is the first four bytes, the minimum op>>4 + 1), then slab
	// walks: provision (11) and carve (12) over a short payload.
	f.Add([]byte{10, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0xf7, 0, 0, 1, 0xf7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{11, 12, 12, 25, 12, 'p', 'a', 'y', 'l', 'o', 'a', 'd', 0, 0, 0, 3, 'a', 'b', 'c'})
	f.Add([]byte{0xf5, 12, 11, 12, 38, 64, 12, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 64
		d := NewDecoder(data)
		for i := 0; i < len(data) && i < maxOps; i++ {
			op := data[i]
			switch op % 13 {
			case 0:
				n := int(op)
				if d.Ensure(n) {
					if d.Remaining() < n {
						t.Fatalf("Ensure(%d) passed with %d bytes remaining", n, d.Remaining())
					}
					d.Next(n)
				}
			case 1:
				d.Align(4)
				if d.Err() == nil && d.Pos()%4 != 0 {
					t.Fatalf("Align(4) left cursor at %d", d.Pos())
				}
			case 2:
				d.Align(8)
			case 3:
				d.U8C()
			case 4:
				d.U16BEC()
			case 5:
				d.U32LEC()
			case 6:
				d.U64BEC()
			case 7:
				// Bounded count, big-endian (XDR style).
				if d.Ensure(4) {
					if n, ok := d.Len(BE, uint32(op), false, 1); ok {
						if d.Remaining() < n {
							t.Fatalf("Len accepted count %d with %d bytes remaining", n, d.Remaining())
						}
						d.Next(n)
					}
				}
			case 8:
				// NUL-counted string, little-endian (CDR style). A
				// CheckLen success guarantees the body fits, so the
				// Next needs no further Ensure.
				if d.Ensure(4) {
					if n, ok := d.Len(LE, 0, true, 1); ok {
						d.Next(n)
					}
				}
			case 9:
				if d.EnsureDyn(4, 8, int(op)) {
					d.Next(4 + 8*int(op))
				}
			case 10:
				// Count of elements at least elemMin wire bytes each: a
				// success means a make(count) is backed by the message.
				if d.Ensure(4) {
					elemMin := int(op>>4) + 1
					if n, ok := d.Len(BE, 0, false, elemMin); ok && n*elemMin > d.Remaining() {
						t.Fatalf("Len accepted %d elements of >= %d bytes with %d bytes remaining",
							n, elemMin, d.Remaining())
					}
				}
			case 11:
				d.Slab(int(op) - 64)
			case 12:
				n := int(op) / 13
				if d.Ensure(n) {
					if s := d.NextString(n); s != string(data[d.Pos()-n:d.Pos()]) {
						t.Fatalf("NextString(%d) = %q, wire has %q", n, s, data[d.Pos()-n:d.Pos()])
					}
					b := d.SlabBytes(n)
					if len(b) != n || cap(b) != n && n > 0 {
						t.Fatalf("SlabBytes(%d): len %d cap %d", n, len(b), cap(b))
					}
					copy(b, "slab-window-bytes")
					if s := d.SlabString(b); s != string(b) {
						t.Fatalf("SlabString = %q, window holds %q", s, b)
					}
				}
			}
			if d.Pos() > len(data) {
				t.Fatalf("op %d (%d): cursor %d past end %d", i, op, d.Pos(), len(data))
			}
			if cap(d.slab) > len(data) {
				t.Fatalf("op %d (%d): slab of %d bytes for a %d-byte message", i, op, cap(d.slab), len(data))
			}
		}
	})
}
