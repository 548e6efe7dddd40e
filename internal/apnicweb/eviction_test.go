package apnicweb

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/apnic"
	"repro/internal/dates"
	"repro/internal/source/binfmt"
)

// TestBoundedCacheEviction serves more days than the cache capacity and
// checks the artifact cache stays bounded, evictions are counted on
// /metrics, and an evicted day regenerates byte-identically.
func TestBoundedCacheEviction(t *testing.T) {
	const capacity = 4
	srv := newTestServer(capacity)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(d dates.Date) []byte {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/reports/" + d.String() + ".csv")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", d, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	first := get(dates.New(2024, 3, 1))
	for i := 1; i < capacity*3; i++ { // push the first day out
		get(dates.New(2024, 3, 1).AddDays(i))
	}
	st, _ := srv.Registry().FrameCacheStats(apnic.DatasetName)
	if st.Len > capacity {
		t.Fatalf("artifact cache holds %d days, capacity %d", st.Len, capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("no artifact evictions after serving 3x capacity")
	}

	// Determinism across eviction: the refilled day must be identical.
	if again := get(dates.New(2024, 3, 1)); !bytes.Equal(again, first) {
		t.Fatal("evicted day regenerated with different bytes")
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, name := range []string{
		`source_frame_cache_evictions{dataset="apnic"}`,
		`source_frame_cache_days{dataset="apnic"}`,
		`source_frame_cache_capacity{dataset="apnic"}`,
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
	if !strings.Contains(text, fmt.Sprintf(`source_frame_cache_capacity{dataset="apnic"} %d`, capacity)) {
		t.Errorf("capacity gauge does not report %d:\n%s", capacity, text)
	}
	// The artifact cache is the only day cache: the server registers none.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "apnicweb_") && strings.Contains(line, "cache") {
			t.Errorf("server still exports its own day-cache series: %s", line)
		}
	}
}

// TestBoundedCacheHammer pounds a small-capacity server from many
// goroutines over a key space larger than the cache — the -race workout
// for concurrent serving with in-flight eviction on the full HTTP path.
func TestBoundedCacheHammer(t *testing.T) {
	const capacity, days, goroutines, reqs = 3, 12, 8, 30
	srv := newTestServer(capacity)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Reference bodies, fetched serially first.
	want := make(map[dates.Date][]byte, days)
	for i := 0; i < days; i++ {
		d := dates.New(2024, 6, 1).AddDays(i)
		resp, err := ts.Client().Get(ts.URL + "/v1/reports/" + d.String() + ".csv")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want[d] = body
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				d := dates.New(2024, 6, 1).AddDays((g*5 + i) % days)
				resp, err := ts.Client().Get(ts.URL + "/v1/reports/" + d.String() + ".csv")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(body, want[d]) {
					t.Errorf("day %s served different bytes under pressure", d)
					return
				}
			}
		}()
	}
	wg.Wait()

	st, _ := srv.Registry().FrameCacheStats(apnic.DatasetName)
	if st.Len > capacity {
		t.Fatalf("artifact cache holds %d days, capacity %d", st.Len, capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("hammer produced no evictions")
	}
}

// TestSeriesKeepsHotDays is the series admission gate: a 120-point
// series (the maxPoints limit) over cold days must not flush the hot
// set. With 30 cache days per dataset and 14 hot days warmed, one
// request on either series route reads 120 days, yet afterwards every
// hot day is still resident, so re-serving them generates nothing. The
// cold days evict only each other, and the cache counts those evictions
// apart: its hot-eviction count stays 0.
func TestSeriesKeepsHotDays(t *testing.T) {
	srv := newTestServer(30)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const hot = 14
	datasets := []string{apnic.DatasetName, "cdn"}
	serveHot := func() {
		t.Helper()
		for _, ds := range datasets {
			for i := 0; i < hot; i++ {
				path := "/v1/" + ds + "/reports/" + dates.New(2024, 12, 31).AddDays(-i).String() + binfmt.Suffix
				resp := rawGet(t, ts, path, nil)
				if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
				}
			}
		}
	}
	gens := func(ds string) int64 {
		st, _ := srv.Registry().FrameCacheStats(ds)
		return st.Gens
	}
	serveHot()

	first := dates.New(2024, 1, 1)
	rep := testGen.Generate(first)
	cdnSrc, _ := srv.Registry().Lookup("cdn")
	cdnDay := cdnSrc.Generate(first)
	window := "&from=2024-01-01&to=2024-04-29"
	for _, path := range []string{
		"/v1/series/AS" + itoa(rep.Rows[0].ASN) + "?cc=" + rep.Rows[0].CC + window,
		"/v1/cdn/series/" + cdnDay.Col("Org").Strs[0] + "?cc=" + cdnDay.Col("CC").Strs[0] + window,
	} {
		resp := rawGet(t, ts, path, nil)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		if n := strings.Count(string(body), `"date"`); n != 120 {
			t.Fatalf("GET %s: %d points, want 120", path, n)
		}
	}

	for _, ds := range datasets {
		st, _ := srv.Registry().FrameCacheStats(ds)
		if st.Evictions != 0 || st.ColdEvictions == 0 {
			t.Errorf("%s: after a 120-point series, %d hot and %d cold evictions; want 0 hot, some cold",
				ds, st.Evictions, st.ColdEvictions)
		}
	}

	before := map[string]int64{}
	for _, ds := range datasets {
		before[ds] = gens(ds)
	}
	serveHot()
	for _, ds := range datasets {
		if refills := gens(ds) - before[ds]; refills != 0 {
			t.Errorf("%s: re-serving %d hot days after a 120-point series regenerated %d of them", ds, hot, refills)
		}
	}
}
