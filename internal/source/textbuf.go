package source

import (
	"io"
	"sync"
)

// The text encoders (appendCSV, appendJSON) append a whole body to one
// byte slice. Frame.WriteCSV/WriteJSON and the exact-size renders
// (CSVBytes, JSONBytes) run them into a pooled scratch buffer, so an
// encode keeps no garbage that grows with the frame: the writers hand
// the buffer to w in one Write, and the renders copy it out at exact
// size. A buffer that grew past maxPooledBuf is dropped instead of
// pinning its memory; the largest served body is under 400 KB.
const maxPooledBuf = 1 << 20

var textBufs = sync.Pool{New: func() any { return new([]byte) }}

// renderText runs enc into a pooled buffer and passes the body to use,
// which must not keep it. enc reports every error before appending.
func renderText(enc func([]byte) ([]byte, error), use func([]byte) error) error {
	p := textBufs.Get().(*[]byte)
	b, err := enc((*p)[:0])
	if err == nil {
		err = use(b)
	}
	if cap(b) <= maxPooledBuf {
		*p = b[:0]
		textBufs.Put(p)
	}
	return err
}

// writeText writes enc's body to w in one Write.
func writeText(w io.Writer, enc func([]byte) ([]byte, error)) error {
	return renderText(enc, func(b []byte) error {
		_, err := w.Write(b)
		return err
	})
}

// cloneText returns enc's body in a new slice of exact size.
func cloneText(enc func([]byte) ([]byte, error)) ([]byte, error) {
	var out []byte
	err := renderText(enc, func(b []byte) error {
		out = make([]byte, len(b))
		copy(out, b)
		return nil
	})
	return out, err
}
