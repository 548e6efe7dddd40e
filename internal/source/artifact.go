package source

import (
	"io"
	"sync"

	"repro/internal/syncx"
)

// Artifact is one resident dataset-day: the frame plus everything the
// serving path derives from it — the content hash, encoded bodies keyed
// by representation name, and the digit table the text encoders format
// float cells from. Each part is filled lazily at most once (concurrent
// callers share one fill) and is evicted together with the day. Every
// part is a pure function of the frame, so a refill after eviction is
// byte-identical.
type Artifact struct {
	// Frame is the day's data. Shared: callers must treat it as read-only.
	Frame *Frame

	reg      *Registry // codec source for Bin and Binz
	hashOnce sync.Once
	hash     string
	bodies   syncx.Cache[string, Body]

	digitsOnce sync.Once
	digits     digitTable
}

// Body is one memoized representation of an artifact. A render error is
// kept like the bytes: renders are deterministic, so it would recur on
// every attempt, and repeat requests see one message rather than a flap.
type Body struct {
	Bytes []byte
	Hash  string // validator of Bytes, set by renders whose bytes are their own canonical form
	Err   error
}

// Hash returns the frame's content hash, computed once.
func (a *Artifact) Hash() string {
	a.hashOnce.Do(func() { a.hash = a.Frame.ContentHash() })
	return a.hash
}

// WriteCSV writes the frame's CSV encoding, byte-identical to
// Frame.WriteCSV, formatting float cells from the artifact's digit
// table: the shortest-digit search runs once per cell while the day is
// resident, not once per encode.
func (a *Artifact) WriteCSV(w io.Writer) error { return a.Frame.writeCSV(w, a.digitTable()) }

// WriteJSON writes the frame's JSON encoding, byte-identical to
// Frame.WriteJSON, from the same digit table as WriteCSV.
func (a *Artifact) WriteJSON(w io.Writer) error { return a.Frame.writeJSON(w, a.digitTable()) }

// digitTable returns the frame's digit table, built on first use.
func (a *Artifact) digitTable() digitTable {
	a.digitsOnce.Do(func() { a.digits = newDigitTable(a.Frame) })
	return a.digits
}

// Body returns the representation named repr, running render at most
// once while the artifact is resident. The registry knows nothing about
// the representations a caller names; render must be a pure function of
// the frame, and the returned bytes are shared and read-only.
func (a *Artifact) Body(repr string, render func(*Frame) Body) Body {
	return a.bodies.Get(repr, func() Body { return render(a.Frame) })
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
