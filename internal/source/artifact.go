package source

import (
	"sync"
	"unsafe"
	"weak"

	"repro/internal/syncx"
)

// Artifact is one resident dataset-day: the frame plus everything the
// serving path derives from it — the content hash and encoded bodies
// keyed by representation name. Each part is filled lazily, concurrent
// callers sharing one fill. Body parts are held until the day is
// evicted; WeakBody parts only until the garbage collector next finds
// no request holding them. Every part is a pure function of the frame,
// so a refill after either is byte-identical.
type Artifact struct {
	// Frame is the day's data. Shared: callers must treat it as read-only.
	Frame *Frame

	reg      *Registry // codec source for Bin and Binz
	hashOnce sync.Once
	hash     string
	bodies   syncx.Cache[string, Body]
	weak     syncx.Cache[string, *weakBody]
}

// Body is one memoized representation of an artifact. A render error is
// kept like the bytes: renders are deterministic, so it would recur on
// every attempt, and repeat requests see one message rather than a flap.
type Body struct {
	Bytes []byte
	Hash  string // validator of Bytes, set by renders whose bytes are their own canonical form
	Err   error
}

// weakBody is one weakly held representation: a weak pointer to the
// first byte of the body and its length. mu makes the callers that find
// the body gone share one render.
type weakBody struct {
	mu  sync.Mutex
	ptr weak.Pointer[byte]
	n   int
}

// Hash returns the frame's content hash, computed once.
func (a *Artifact) Hash() string {
	a.hashOnce.Do(func() { a.hash = a.Frame.ContentHash() })
	return a.hash
}

// Body returns the representation named repr, running render at most
// once while the artifact is resident. The registry knows nothing about
// the representations a caller names; render must be a pure function of
// the frame, and the returned bytes are shared and read-only.
func (a *Artifact) Body(repr string, render func(*Frame) Body) Body {
	return a.bodies.Get(repr, func() Body { return render(a.Frame) })
}

// WeakBody is Body for a representation cheap enough to rebuild: the
// bytes are held weakly, so they do not count toward the heap the
// collector keeps and paces itself by. They live while any caller
// holds them, and at least until the next garbage collection; a call
// after the collector dropped them renders again, byte-identical.
// Concurrent callers share one render. A failed render is returned but
// never kept, and neither is an empty body (a weak pointer needs a
// byte to point at).
func (a *Artifact) WeakBody(repr string, render func(*Frame) ([]byte, error)) ([]byte, error) {
	s := a.weak.Get(repr, func() *weakBody { return new(weakBody) })
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.ptr.Value(); p != nil {
		return unsafe.Slice(p, s.n), nil
	}
	b, err := render(a.Frame)
	if err == nil && len(b) > 0 {
		s.ptr, s.n = weak.Make(&b[0]), len(b)
	}
	return b, err
}

// Bin returns the frame's binary encoding under the registry's
// SetBinCodec codec, memoized as representation "bin".
func (a *Artifact) Bin() ([]byte, error) {
	bin, _ := a.reg.codecs()
	return a.encode("bin", bin, ErrNoBinCodec)
}

// Binz returns the frame's compressed binary encoding under the
// registry's SetBinzCodec codec, memoized as representation "binz".
func (a *Artifact) Binz() ([]byte, error) {
	_, binz := a.reg.codecs()
	return a.encode("binz", binz, ErrNoBinzCodec)
}

func (a *Artifact) encode(repr string, codec BinCodec, missing error) ([]byte, error) {
	if codec == nil {
		return nil, missing
	}
	b := a.Body(repr, func(f *Frame) Body {
		enc, err := codec(f)
		return Body{Bytes: enc, Err: err}
	})
	return b.Bytes, b.Err
}
