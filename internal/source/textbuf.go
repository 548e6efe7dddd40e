package source

import (
	"io"
	"sync"
)

// The text encoders (WriteCSV, WriteJSON) append cells into one byte
// buffer and hand it to the destination in chunks of exactly chunkSize
// bytes (the last one shorter), so a body is never held whole in memory
// and the per-cell cost is an append, not a Write call. Buffers
// are pooled; one that grew past maxPooledBuf (a frame with a cell far
// larger than a chunk) is dropped instead of pinning its memory.
const (
	chunkSize    = 32 << 10
	maxPooledBuf = 4 * chunkSize
)

var textBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, chunkSize+chunkSize/4)
		return &b
	},
}

// chunkWriter is one encode's destination plus its pooled buffer. The
// encoder keeps the buffer in a local slice and passes it through spill,
// which hands back the slice to keep appending to.
type chunkWriter struct {
	w io.Writer
	p *[]byte // the pooled slice header, reused by release
}

func newChunkWriter(w io.Writer) (chunkWriter, []byte) {
	p := textBufs.Get().(*[]byte)
	return chunkWriter{w: w, p: p}, (*p)[:0]
}

// spill writes out every full chunkSize prefix of b and returns the
// remainder, moved to the front of the buffer.
func (c chunkWriter) spill(b []byte) ([]byte, error) {
	for len(b) >= chunkSize {
		if _, err := c.w.Write(b[:chunkSize]); err != nil {
			return b, err
		}
		b = b[:copy(b, b[chunkSize:])]
	}
	return b, nil
}

// flush writes out whatever is buffered.
func (c chunkWriter) flush(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	_, err := c.w.Write(b)
	return err
}

// release returns the buffer, as last grown, to the pool.
func (c chunkWriter) release(b []byte) {
	if cap(b) <= maxPooledBuf {
		*c.p = b[:0]
		textBufs.Put(c.p)
	}
}
