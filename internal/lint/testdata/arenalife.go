package fixture

import "flick/rt"

type blob []byte

type header struct {
	body []byte
}

var stashedView []byte

// ok: the view is copied out before the borrow ends; only the copy
// survives the Release.
func copiesOut(d *rt.Decoder) []byte {
	v := d.AliasNext(16)
	out := append([]byte(nil), v...)
	d.Release()
	return out
}

// ok: the generated-Unmarshal shape — the view is handed to the caller
// WITHOUT releasing the decoder. Ownership of the borrow transfers with
// the return value.
func transfersView(d *rt.Decoder) (ret []byte) {
	ret = d.AliasNext(16)
	return
}

// ok: filling a caller-owned out value without ending the borrow is the
// same ownership transfer, spelled as a store.
func fillsCallerOut(d *rt.Decoder, out *header) {
	out.body = d.AliasNext(16)
}

func storesGlobal(d *rt.Decoder) {
	stashedView = d.AliasNext(8) // want `arena view stored into package-level stashedView`
	d.Release()
}

func sendsOnChannel(d *rt.Decoder, ch chan []byte) {
	v := d.AliasNext(8)
	ch <- v // want `arena view v sent on a channel`
	d.Release()
}

// The conversion the stub generator wraps named byte presentations in
// does not launder the alias.
func sendsConvertedView(d *rt.Decoder, ch chan blob) {
	v := blob(d.AliasNext(8))
	ch <- v // want `arena view v sent on a channel`
	d.Release()
}

func storesFieldThenReleases(d *rt.Decoder, h *header) {
	v := d.AliasNext(8)
	h.body = v // want `arena view v stored into a field or global`
	d.Release()
}

func directStoreThenReleases(d *rt.Decoder, h *header) {
	h.body = d.AliasNext(8) // want `arena view stored into a field or global`
	d.Release()
}

func returnsAfterBorrowEnds(d *rt.Decoder) []byte {
	v := d.AliasNext(8)
	defer d.Release()
	return v // want `arena view v returned after its borrow ends`
}

func capturedByClosure(d *rt.Decoder, schedule func(func() byte)) {
	v := d.AliasNext(8)
	schedule(func() byte { return v[0] }) // want `arena view v captured by a function literal`
	d.Release()
}

func compositeEscape(d *rt.Decoder, out chan header) {
	v := d.AliasNext(8)
	h := header{body: v} // want `arena view v stored into a composite value`
	d.Release()
	out <- h
}

func usedAfterRelease(d *rt.Decoder) byte {
	v := d.AliasNext(8)
	d.Release()
	return v[0] // want `use of arena view v after the decoder's release`
}

// ok: the closure owns its whole borrow — acquire, use, and release all
// inside the literal.
func closureOwnsItsView(d *rt.Decoder) func() []byte {
	return func() []byte {
		v := d.AliasNext(8)
		out := append([]byte(nil), v...)
		d.Release()
		return out
	}
}

// --- EndBorrow ends a view's life exactly like Release ----------------------

func usedAfterEndBorrow(d *rt.Decoder) byte {
	v := d.AliasNext(8)
	d.EndBorrow()
	return v[0] // want `use of arena view v after the decoder's release`
}

func storesFieldThenEndsBorrow(d *rt.Decoder, h *header) {
	v := d.AliasNext(8)
	h.body = v // want `arena view v stored into a field or global`
	d.EndBorrow()
}

// ok: the skeleton shape — the view is used (marshaled) before the
// borrow ends, and nothing touches it after.
func usesThenEndsBorrow(d *rt.Decoder, e *rt.Encoder) {
	v := d.AliasNext(8)
	e.PutBytes(v)
	d.EndBorrow()
}

// --- handlers of a generated -zerocopy server interface ---------------------

// StoreServer is the interface a Store implementation provides.
//
//flick:borrowed Put data
type StoreServer interface {
	Get(name string) (ret []byte, err error)
	Put(name string, data []byte) (ret uint32, err error)
}

// ok: keeps the bytes by copying them; Get's arguments are not borrowed.
type copyingStore struct{ m map[string][]byte }

func (s *copyingStore) Get(name string) ([]byte, error) { return s.m[name], nil }

func (s *copyingStore) Put(name string, data []byte) (uint32, error) {
	s.m[name] = append([]byte(nil), data...)
	return uint32(len(data)), nil
}

// EchoServer is the interface an Echo implementation provides.
//
//flick:borrowed Echo data
type EchoServer interface {
	Echo(data []byte) (ret []byte, err error)
}

// ok: a handler may return its argument — the skeleton marshals the
// reply before the borrow ends.
type echo struct{}

func (echo) Echo(data []byte) ([]byte, error) { return data, nil }

type retainingStore struct {
	copyingStore
	last header
}

func (s *retainingStore) Put(name string, data []byte) (uint32, error) {
	s.last.body = data // want `arena view data stored into a field or global`
	return uint32(len(data)), nil
}

type asyncStore struct {
	copyingStore
	sums chan uint32
}

// The parameter's name is the implementation's own; the directive binds
// by position.
func (s *asyncStore) Put(name string, blob []byte) (uint32, error) {
	go func() { // want `arena view blob captured by a goroutine`
		var sum uint32
		for _, b := range blob {
			sum += uint32(b)
		}
		s.sums <- sum
	}()
	return 0, nil
}

// ok: a literal the method itself calls runs inside the borrow (the
// generated client is such an implementation: a proxy whose marshal
// callback reads the argument before Put returns).
type proxyStore struct {
	copyingStore
	call func(func() int) int
}

func (s *proxyStore) Put(name string, data []byte) (uint32, error) {
	return uint32(s.call(func() int { return len(data) })), nil
}

type forwardingStore struct {
	copyingStore
	out chan []byte
}

func (s *forwardingStore) Put(name string, data []byte) (uint32, error) {
	s.out <- data // want `arena view data sent on a channel`
	return 0, nil
}

// Not an implementation (no Get): its Put is nobody's handler.
type unrelated struct{ kept []byte }

func (u *unrelated) Put(name string, data []byte) (uint32, error) {
	u.kept = data
	return 0, nil
}

// --- handlers of a //flick:borrow server interface --------------------------

// The in-parameter arrays a //flick:borrow skeleton decodes into lent
// storage follow the same rule as arena views, whatever their element
// type.

// SumServer is the interface a Sum implementation provides.
//
//flick:borrowed Sum v
type SumServer interface {
	Sum(v []int32) (ret int32, err error)
}

// ok: reads its argument inside the borrow, and keeps a copy.
type summer struct{ last []int32 }

func (s *summer) Sum(v []int32) (int32, error) {
	s.last = append(s.last[:0], v...)
	var t int32
	for _, x := range v {
		t += x
	}
	return t, nil
}

type keepingSummer struct{ last []int32 }

func (s *keepingSummer) Sum(v []int32) (int32, error) {
	s.last = v // want `arena view v stored into a field or global`
	return 0, nil
}
