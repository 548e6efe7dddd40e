package apnicweb

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/dates"
	"repro/internal/source"
)

// textHolder keeps every identity text body a server renders strongly
// reachable, so a garbage collection cannot drop one while a test
// counts renders; release lets them go.
type textHolder struct {
	mu     sync.Mutex
	bodies [][]byte
}

// holdTextRenders wraps srv's text render seams so that h keeps every
// body they return. wait, when set, runs before each render.
func holdTextRenders(srv *Server, wait func()) *textHolder {
	h := &textHolder{}
	for _, text := range []*repr{&srv.csvText, &srv.jsonText} {
		render := text.render
		text.render = func(f *source.Frame) ([]byte, error) {
			if wait != nil {
				wait()
			}
			b, err := render(f)
			h.mu.Lock()
			h.bodies = append(h.bodies, b)
			h.mu.Unlock()
			return b, err
		}
	}
	return h
}

func (h *textHolder) release() {
	h.mu.Lock()
	h.bodies = nil
	h.mu.Unlock()
}

// textRenders reads apnicweb_text_renders_total for one representation.
func textRenders(srv *Server, repr string) int64 {
	return srv.metrics.Counter(`apnicweb_text_renders_total{repr="` + repr + `"}`).Value()
}

// TestTextBodyRebuiltAfterGC: an identity text body is rendered once
// and served from memory while anything holds it; once a collection
// drops it, the next request renders it again, byte-identical, and
// apnicweb_text_renders_total goes up by one.
func TestTextBodyRebuiltAfterGC(t *testing.T) {
	srv, ts, _ := multiServer(t)
	held := holdTextRenders(srv, nil)
	path := "/v1/cdn/reports/2024-03-14"
	get := func() []byte {
		t.Helper()
		resp := rawGet(t, ts, path, map[string]string{"Accept-Encoding": "identity"})
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return body
	}
	first := get()
	runtime.GC()
	if !bytes.Equal(get(), first) || textRenders(srv, "json") != 1 {
		t.Fatalf("a held body was re-rendered: %d renders", textRenders(srv, "json"))
	}
	held.release()
	runtime.GC()
	if !bytes.Equal(get(), first) {
		t.Fatal("the body rebuilt after a collection differs from the first render")
	}
	if n := textRenders(srv, "json"); n != 2 {
		t.Fatalf("after the collection dropped the body: %d renders, want 2", n)
	}
	if n := textRenders(srv, "csv"); n != 0 {
		t.Fatalf("JSON requests rendered CSV %d times", n)
	}
}

// TestTextRenderSharedAroundGC: concurrent requests for a body the
// collector dropped share one render, also when a collection runs while
// that render is in flight, and every client gets the same bytes.
func TestTextRenderSharedAroundGC(t *testing.T) {
	srv, ts, _ := multiServer(t)
	var started, release chan struct{}
	var once *sync.Once
	held := holdTextRenders(srv, func() {
		once.Do(func() { close(started) })
		<-release
	})
	path := "/v1/apnic/reports/2024-02-02.csv"
	const workers = 16
	burst := func() [][]byte {
		t.Helper()
		started, release, once = make(chan struct{}), make(chan struct{}), new(sync.Once)
		bodies := make([][]byte, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		wg.Add(workers)
		for i := 0; i < workers; i++ {
			go func(i int) {
				defer wg.Done()
				req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
				req.Header.Set("Accept-Encoding", "identity")
				resp, err := ts.Client().Do(req)
				if err != nil {
					errs[i] = err
					return
				}
				defer resp.Body.Close()
				bodies[i], errs[i] = io.ReadAll(resp.Body)
				if errs[i] == nil && resp.StatusCode != http.StatusOK {
					errs[i] = errors.New(resp.Status)
				}
			}(i)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-started:
			runtime.GC() // while the render is in flight
		case <-done: // nothing rendered; the count check below reports it
		}
		close(release)
		<-done
		for i, err := range errs {
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
		}
		return bodies
	}
	first := burst()
	if n := textRenders(srv, "csv"); n != 1 {
		t.Fatalf("%d concurrent requests rendered %d times, want 1", workers, n)
	}
	held.release()
	runtime.GC()
	second := burst()
	if n := textRenders(srv, "csv"); n != 2 {
		t.Fatalf("after a collection, %d concurrent requests added %d renders, want 1", workers, n-1)
	}
	for i := range first {
		if !bytes.Equal(first[i], first[0]) || !bytes.Equal(second[i], first[0]) {
			t.Fatalf("worker %d got different bytes", i)
		}
	}
}

// TestTextRenderErrorIs500: a failed identity text render answers a
// clean JSON 500 before any body byte, without the success-only
// headers, and leaves nothing memoized: once the render works again the
// same day serves completely, from a fresh render.
func TestTextRenderErrorIs500(t *testing.T) {
	srv := newTestServer(30)
	d := dates.New(2024, 10, 2)
	path := "/v1/cdn/reports/" + d.String() + ".csv"
	realRender := srv.csvText.render
	srv.csvText.render = func(*source.Frame) ([]byte, error) {
		return nil, errors.New("render failed")
	}
	h := srv.Handler()

	rec := httptest.NewRecorder()
	cw := &countingWriter{ResponseWriter: rec}
	h.ServeHTTP(cw, httptest.NewRequest(http.MethodGet, path, nil))
	if cw.status != http.StatusInternalServerError || rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 written before any body byte", cw.status)
	}
	if cw.bodyAfterError || !strings.Contains(rec.Body.String(), `"error":"report generation failed: render failed"`) {
		t.Fatalf("500 body %q is not one JSON error", rec.Body.String())
	}
	for _, hdr := range []string{"ETag", "Cache-Control", "Content-Length", "Vary"} {
		if v := rec.Header().Get(hdr); v != "" {
			t.Errorf("500 response carries %s: %q", hdr, v)
		}
	}
	if n := srv.metrics.Counter("apnicweb_render_errors_total").Value(); n != 1 {
		t.Errorf("render error counter = %d, want 1", n)
	}

	srv.csvText.render = realRender
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("after the failure: status %d: %s", rec.Code, rec.Body)
	}
	if n := textRenders(srv, "csv"); n != 2 {
		t.Errorf("%d csv renders, want the failed one and a fresh one", n)
	}
	want, err := srv.Registry().Frame("cdn", d)
	if err != nil {
		t.Fatal(err)
	}
	f, err := source.ReadCSV(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(want) {
		t.Fatal("the body served after a failed render differs from the generated frame")
	}
}
