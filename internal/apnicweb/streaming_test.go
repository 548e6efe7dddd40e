package apnicweb

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/dates"
	"repro/internal/source"
)

// countingWriter wraps a ResponseWriter and records how the handler
// writes the body: call count and whether anything arrived after an
// explicit error status.
type countingWriter struct {
	http.ResponseWriter
	writes         int
	bytes          int
	status         int
	bodyAfterError bool
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.status >= 400 && c.writes > 0 {
		c.bodyAfterError = true
	}
	c.writes++
	c.bytes += len(p)
	return c.ResponseWriter.Write(p)
}

// TestStreamingCSVChunks proves the identity CSV path streams instead of
// buffering: the handler performs many Writes (the frame encoders hand
// over 32 KiB chunks), the response goes out chunked, and Content-Length
// is omitted — not set to a guess.
func TestStreamingCSVChunks(t *testing.T) {
	srv, ts, _ := multiServer(t)
	d := dates.New(2024, 7, 1)
	path := "/v1/apnic/reports/" + d.String() + ".csv"

	// Below the HTTP layer: count handler Writes.
	rec := httptest.NewRecorder()
	cw := &countingWriter{ResponseWriter: rec}
	srv.Handler().ServeHTTP(cw, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if cw.writes < 2 {
		t.Errorf("handler wrote the %d-byte body in %d Write(s); streaming demands incremental flushes", cw.bytes, cw.writes)
	}
	if cw.bytes <= 4096 {
		t.Fatalf("apnic day is only %d bytes; fixture too small to prove streaming", cw.bytes)
	}

	// On the wire: no Content-Length, chunked framing.
	resp := rawGet(t, ts, path, nil)
	body := readAll(t, resp)
	if resp.ContentLength != -1 {
		t.Errorf("ContentLength = %d, want -1 (unknown) on a streamed response", resp.ContentLength)
	}
	if cl := resp.Header.Get("Content-Length"); cl != "" {
		t.Errorf("streamed response declares Content-Length %q", cl)
	}
	if len(resp.TransferEncoding) == 0 || resp.TransferEncoding[0] != "chunked" {
		t.Errorf("TransferEncoding = %v, want chunked", resp.TransferEncoding)
	}
	if !bytes.Equal(body, rec.Body.Bytes()) {
		t.Error("wire body differs from the direct handler render")
	}
}

// TestStreamingColdDayHammer fires concurrent identity requests at one
// cache-cold day: the generator must fill exactly once (singleflight
// below the streaming layer) and every client must see identical bytes.
func TestStreamingColdDayHammer(t *testing.T) {
	srv, ts, _ := multiServer(t)
	const workers = 24
	d := dates.New(2024, 9, 13) // untouched by other requests in this test
	path := "/v1/broadband/reports/" + d.String() + ".csv"

	bodies := make([][]byte, workers)
	errs := make([]error, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer done.Done()
			start.Wait() // barrier: maximize cold-day contention
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				errs[i] = err
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
			resp.Body.Close()
			if errs[i] == nil && resp.StatusCode != http.StatusOK {
				errs[i] = errors.New(resp.Status)
			}
		}()
	}
	start.Done()
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for i := 1; i < workers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("worker %d streamed different bytes", i)
		}
	}
	st, ok := srv.Registry().FrameCacheStats("broadband")
	if !ok {
		t.Fatal("no cache stats for broadband")
	}
	if st.Gens != 1 {
		t.Errorf("generator filled %d times for one day under contention; singleflight demands exactly one", st.Gens)
	}
}

// TestClientDisconnectDoesNotPoison: a client that bails mid-download —
// on both the streamed identity path and the cached gzip path — must not
// leave a truncated artifact behind for the next client.
func TestClientDisconnectDoesNotPoison(t *testing.T) {
	srv, ts, _ := multiServer(t)
	d := dates.New(2024, 8, 8)
	path := "/v1/apnic/reports/" + d.String() + ".csv"

	abandon := func(hdr map[string]string) {
		t.Helper()
		resp := rawGet(t, ts, path, hdr)
		buf := make([]byte, 512)
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() // disconnect with most of the body unread
	}
	abandon(nil)
	abandon(map[string]string{"Accept-Encoding": "gzip"})

	// A fresh full download must parse back to the registry's frame.
	want, err := srv.Registry().Frame("apnic", d)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, rawGet(t, ts, path, nil))
	f, err := source.ReadCSV(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post-disconnect identity body does not parse: %v", err)
	}
	if !f.Equal(want) {
		t.Fatal("post-disconnect identity body differs from the generated frame")
	}

	gzResp := rawGet(t, ts, path, map[string]string{"Accept-Encoding": "gzip"})
	zr, err := gzip.NewReader(gzResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := io.ReadAll(zr)
	gzResp.Body.Close()
	if err != nil {
		t.Fatalf("post-disconnect gzip body truncated: %v", err)
	}
	if !bytes.Equal(decoded, body) {
		t.Fatal("post-disconnect gzip body differs from identity bytes")
	}
	// Note: the identity disconnect may or may not tick the stream-abort
	// counter, depending on whether the server's writes were still in
	// flight when the close landed. Both are correct; what this test pins
	// is that neither outcome leaves a truncated artifact behind.
}

// TestStreamErrorAbortsConnection: when the render fails mid-stream the
// server must NOT finish the response cleanly — a truncated chunked body
// that still gets its terminating chunk looks complete to every client.
// The connection is dropped instead, the abort counter moves, and the
// same day serves fine afterwards (nothing poisoned).
func TestStreamErrorAbortsConnection(t *testing.T) {
	srv, ts, _ := multiServer(t)
	d := dates.New(2024, 10, 2)
	path := "/v1/cdn/reports/" + d.String() + ".csv"

	realWrite := srv.writeFrameCSV
	srv.writeFrameCSV = func(_ *source.Artifact, w io.Writer) error {
		// Write past net/http's 4KB response buffer so the 200 and a
		// partial body are committed to the wire before the failure.
		row := []byte("FR,example,123456\n")
		for written := 0; written < 8192; written += len(row) {
			if _, err := w.Write(row); err != nil {
				return err
			}
		}
		return errors.New("render failed mid-flight")
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "identity")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d; the failure hits after headers are committed", resp.StatusCode)
	}
	_, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatal("client read completed cleanly on a truncated stream; the connection must abort")
	}
	if n := srv.metrics.Counter("apnicweb_stream_aborts_total").Value(); n != 1 {
		t.Errorf("stream abort counter = %d, want 1", n)
	}

	// Restore the seam: the same day must serve completely — identity
	// bodies are never byte-cached, so the abort left nothing behind.
	srv.writeFrameCSV = realWrite
	resp = rawGet(t, ts, path, nil)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-abort status %d", resp.StatusCode)
	}
	want, err := srv.Registry().Frame("cdn", d)
	if err != nil {
		t.Fatal(err)
	}
	f, err := source.ReadCSV(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(want) {
		t.Fatal("post-abort render differs from the generated frame")
	}
}

// TestGzipRenderErrorCleanrooms500: a render failure caught before any
// byte is on the wire (the gzip path materializes first) must produce a
// clean JSON 500 carrying none of the success-only headers — an ETag or
// public Cache-Control on a 500 could get cached by an intermediary.
func TestGzipRenderErrorCleanrooms500(t *testing.T) {
	srv, ts, _ := multiServer(t)
	d := dates.New(2024, 10, 3)
	path := "/v1/mlab/reports/" + d.String() + ".csv"

	srv.writeFrameCSV = func(*source.Artifact, io.Writer) error {
		return errors.New("render failed before any byte")
	}
	resp := rawGet(t, ts, path, map[string]string{"Accept-Encoding": "gzip"})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	for _, hdr := range []string{"ETag", "Cache-Control", "Content-Encoding"} {
		if v := resp.Header.Get(hdr); v != "" {
			t.Errorf("500 response carries %s: %q", hdr, v)
		}
	}
	if !bytes.Contains(body, []byte("report generation failed")) {
		t.Errorf("500 body %q is not the JSON error", body)
	}
	if n := srv.metrics.Counter("apnicweb_stream_aborts_total").Value(); n != 0 {
		t.Errorf("pre-wire failure counted as a stream abort (%d)", n)
	}
}

// TestNotModifiedWritesNoBody drives a 304 below the HTTP layer and
// proves the handler never calls Write after WriteHeader(304) — the
// error-path audit for body-after-header bugs that net/http would only
// log, not fail.
func TestNotModifiedWritesNoBody(t *testing.T) {
	srv, _, _ := multiServer(t)
	d := dates.New(2024, 10, 4)
	path := "/v1/ixp/reports/" + d.String() + ".csv"

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("priming status %d", rec.Code)
	}
	etag := rec.Header().Get("ETag")

	rec = httptest.NewRecorder()
	cw := &countingWriter{ResponseWriter: rec}
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("If-None-Match", etag)
	srv.Handler().ServeHTTP(cw, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("status %d, want 304", rec.Code)
	}
	if cw.writes != 0 {
		t.Errorf("handler wrote %d body chunk(s) on a 304", cw.writes)
	}
}
