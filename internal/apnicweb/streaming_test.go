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

// TestIdentityTextWholeBody proves the identity CSV and JSON paths
// serve a whole body: the handler writes it in one Write, and the
// response declares its exact Content-Length instead of going out
// chunked.
func TestIdentityTextWholeBody(t *testing.T) {
	srv, ts, _ := multiServer(t)
	d := dates.New(2024, 7, 1)
	for _, path := range []string{"/v1/apnic/reports/" + d.String() + ".csv", "/v1/apnic/reports/" + d.String()} {
		// Below the HTTP layer: count handler Writes.
		rec := httptest.NewRecorder()
		cw := &countingWriter{ResponseWriter: rec}
		srv.Handler().ServeHTTP(cw, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		if cw.writes != 1 {
			t.Errorf("%s: handler wrote the %d-byte body in %d Writes, want 1", path, cw.bytes, cw.writes)
		}
		if cw.bytes <= 4096 {
			t.Fatalf("%s: apnic day is only %d bytes; fixture too small to tell a whole body from chunks", path, cw.bytes)
		}

		// On the wire: the exact Content-Length, no chunked framing.
		resp := rawGet(t, ts, path, nil)
		body := readAll(t, resp)
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: ContentLength = %d for a %d-byte body", path, resp.ContentLength, len(body))
		}
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: TransferEncoding = %v, want none", path, resp.TransferEncoding)
		}
		if !bytes.Equal(body, rec.Body.Bytes()) {
			t.Errorf("%s: wire body differs from the direct handler render", path)
		}
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
// on both the identity path and the cached gzip path — must not leave a
// truncated artifact behind for the next client.
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
}

// TestGzipRenderErrorCleanrooms500: a render failure under a gzip fill
// must produce a clean JSON 500 carrying none of the success-only
// headers — an ETag or public Cache-Control on a 500 could get cached by
// an intermediary.
func TestGzipRenderErrorCleanrooms500(t *testing.T) {
	srv, ts, _ := multiServer(t)
	d := dates.New(2024, 10, 3)
	path := "/v1/mlab/reports/" + d.String() + ".csv"

	srv.csvText.render = func(*source.Frame) ([]byte, error) {
		return nil, errors.New("render failed before any byte")
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
