package apnicweb

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/apnic"
	"repro/internal/dates"
	"repro/internal/source"
	"repro/internal/source/binfmt"
	"repro/internal/source/framez"
)

// servedRepr is one response as the lifecycle test compares it.
type servedRepr struct {
	etag string
	body []byte
}

// TestArtifactLifecycle pins that a day's representations live and die
// with the day. Serving capacity-many days in every representation and
// encoding twice refills nothing on the second pass: no frame
// generation, no codec, legacy, text or gzip render, and identical bytes
// and ETags. Once the days are evicted, serving one again costs exactly
// one generation and one call per codec and render, and reproduces the
// same bytes. The text bodies are held for the whole test, so a garbage
// collection cannot add a render (TestTextBodyRebuiltAfterGC covers
// that).
func TestArtifactLifecycle(t *testing.T) {
	const capacity = 2
	srv := NewMultiServer(testW, 11, dates.New(2024, 1, 1), dates.New(2024, 12, 31), capacity)
	var binCalls, binzCalls, legacyRenders atomic.Int64
	counting := func(n *atomic.Int64, codec source.BinCodec) source.BinCodec {
		return func(f *source.Frame) ([]byte, error) {
			n.Add(1)
			return codec(f)
		}
	}
	srv.Registry().SetBinCodec(counting(&binCalls, binfmt.Encode))
	srv.Registry().SetBinzCodec(counting(&binzCalls, framez.Encode))
	srv.writeCSV = func(rep *apnic.Report, w io.Writer) error {
		legacyRenders.Add(1)
		return rep.WriteCSV(w)
	}
	holdTextRenders(srv, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	days := []dates.Date{dates.New(2024, 5, 1), dates.New(2024, 5, 2)}
	row := testGen.Generate(days[0]).Rows[0]
	asn := "AS" + itoa(row.ASN) + "?cc=" + row.CC
	paths := func(d dates.Date) []string {
		day := d.String()
		return []string{
			"/v1/apnic/reports/" + day + ".csv",
			"/v1/apnic/reports/" + day,
			"/v1/apnic/reports/" + day + binfmt.Suffix,
			"/v1/apnic/reports/" + day + framez.Suffix,
			"/v1/reports/" + day + ".csv",
			"/v1/apnic/series/" + asn + "&from=" + day + "&to=" + day,
			"/v1/series/" + asn + "&from=" + day + "&to=" + day,
		}
	}
	serve := func(d dates.Date) map[string]servedRepr {
		t.Helper()
		out := map[string]servedRepr{}
		for _, path := range paths(d) {
			for _, enc := range []string{"identity", "gzip"} {
				resp := rawGet(t, ts, path, map[string]string{"Accept-Encoding": enc})
				body := readAll(t, resp)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s (%s): status %d: %s", path, enc, resp.StatusCode, body)
				}
				out[path+" "+enc] = servedRepr{resp.Header.Get("ETag"), body}
			}
		}
		return out
	}
	type counts struct{ gens, bin, binz, legacy, text int64 }
	snapshot := func() counts {
		st, _ := srv.Registry().FrameCacheStats(apnic.DatasetName)
		return counts{st.Gens, binCalls.Load(), binzCalls.Load(), legacyRenders.Load(),
			textRenders(srv, "csv") + textRenders(srv, "json")}
	}
	// Per day: CSV and JSON each render once, for the identity response;
	// the gzip fills compress those bodies.
	const textPerFill = 2

	first := map[dates.Date]map[string]servedRepr{}
	for _, d := range days {
		first[d] = serve(d)
	}
	afterFirst := snapshot()
	if want := (counts{capacity, capacity, capacity, capacity, capacity * textPerFill}); afterFirst != want {
		t.Fatalf("first pass fills = %+v, want one per day each: %+v", afterFirst, want)
	}

	for _, d := range days {
		again := serve(d)
		for key, want := range first[d] {
			if got := again[key]; got.etag != want.etag || !bytes.Equal(got.body, want.body) {
				t.Errorf("%s: second pass served different bytes or ETag", key)
			}
		}
	}
	if got := snapshot(); got != afterFirst {
		t.Fatalf("second pass refilled resident days: %+v, want %+v", got, afterFirst)
	}

	// Push both days out, then bring the first one back.
	for i := 0; i < capacity; i++ {
		readAll(t, rawGet(t, ts, "/v1/apnic/reports/"+dates.New(2024, 6, 1+i).String()+".csv", nil))
	}
	st, _ := srv.Registry().FrameCacheStats(apnic.DatasetName)
	if st.Len != capacity || st.Evictions < capacity {
		t.Fatalf("after the eviction pass the cache is %+v", st)
	}
	before := snapshot()
	refilled := serve(days[0])
	delta := snapshot()
	delta = counts{delta.gens - before.gens, delta.bin - before.bin, delta.binz - before.binz,
		delta.legacy - before.legacy, delta.text - before.text}
	if want := (counts{1, 1, 1, 1, textPerFill}); delta != want {
		t.Errorf("refilling an evicted day cost %+v, want %+v", delta, want)
	}
	for key, want := range first[days[0]] {
		if got := refilled[key]; got.etag != want.etag || !bytes.Equal(got.body, want.body) {
			t.Errorf("%s: evicted day came back with different bytes or ETag", key)
		}
	}
}
