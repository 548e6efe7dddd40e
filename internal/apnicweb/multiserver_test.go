package apnicweb

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/apnic"
	"repro/internal/dates"
	"repro/internal/source"
)

func multiServer(t *testing.T) (*Server, *httptest.Server, *Client) {
	t.Helper()
	srv := newTestServer(30)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
}

// nativeGen returns the reference the legacy routes' bytes are checked
// against: testGen, built from (testW, 11) like multiServer's roster, so
// it generates exactly what the server's "apnic" dataset serves.
func nativeGen(t *testing.T, srv *Server) *apnic.Generator {
	t.Helper()
	if _, ok := srv.Registry().Lookup(apnic.DatasetName); !ok {
		t.Fatal("no apnic dataset registered")
	}
	return testGen
}

var allDatasets = []string{"apnic", "cdn", "itu", "mlab", "dnscount", "broadband", "ixp"}

// TestAllDatasetsServed is the integration core of the roster contract:
// every dataset answers its dates route and serves one report, and the
// fetched frame round-trips through the client parser.
func TestAllDatasetsServed(t *testing.T) {
	srv, _, c := multiServer(t)
	d := dates.New(2024, 4, 21)
	if got := srv.Registry().Names(); len(got) != len(allDatasets) {
		t.Fatalf("registry serves %v", got)
	}
	for _, name := range allDatasets {
		dd, err := c.DatasetDates(context.Background(), name)
		if err != nil {
			t.Fatalf("%s dates: %v", name, err)
		}
		if dd.Dataset != name || dd.First != "2024-01-01" || dd.Last != "2024-12-31" || dd.Cadence == "" {
			t.Fatalf("%s dates = %+v", name, dd)
		}
		f, err := c.Frame(context.Background(), name, d)
		if err != nil {
			t.Fatalf("%s report: %v", name, err)
		}
		if f.Source != name || f.Rows() == 0 {
			t.Fatalf("%s frame: source=%q rows=%d", name, f.Source, f.Rows())
		}
		want, err := srv.Registry().Frame(name, d)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Equal(want) {
			t.Fatalf("%s: fetched frame differs from generated frame", name)
		}
	}
}

// TestMultiServerMetricsOnlyFrameCaches pins that a server keeps one day
// cache per dataset: after serving every dataset, /metrics carries the
// artifact caches' source_frame_* series and no other source_* family
// (the native-value caches belong to the experiment lab alone).
func TestMultiServerMetricsOnlyFrameCaches(t *testing.T) {
	_, ts, c := multiServer(t)
	for _, name := range allDatasets {
		if _, err := c.Frame(context.Background(), name, dates.New(2024, 4, 21)); err != nil {
			t.Fatalf("%s report: %v", name, err)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	frameSeries := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		name, labels, ok := strings.Cut(line, "{dataset=")
		if !ok || !strings.HasPrefix(name, "source_") {
			continue
		}
		if !strings.HasPrefix(name, "source_frame_") {
			t.Errorf("server exports a non-artifact day-cache series: %s", line)
		}
		frameSeries[labels[:strings.Index(labels, "}")]] = true
	}
	if len(frameSeries) != len(allDatasets) {
		t.Errorf("source_frame_* series cover %d datasets, want %d:\n%s", len(frameSeries), len(allDatasets), body)
	}
}

// TestUnknownDatasetJSON404 is the satellite regression: an unknown
// dataset name must yield 404 with a JSON error body on every generic
// route family.
func TestUnknownDatasetJSON404(t *testing.T) {
	_, ts, _ := multiServer(t)
	for _, path := range []string{
		"/v1/nosuch/dates",
		"/v1/nosuch/reports/2024-04-21.csv",
		"/v1/nosuch/reports/2024-04-21",
		"/v1/nosuch/series/AS1?cc=FR",
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("GET %s Content-Type = %q, want JSON", path, ct)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("GET %s body %q is not a JSON error", path, body)
		} else if !strings.Contains(eb.Error, "nosuch") {
			t.Errorf("GET %s error %q does not name the dataset", path, eb.Error)
		}
	}
}

// TestLegacyAliasesByteIdentical pins the compatibility contract: the
// legacy APNIC routes on the multi server return the exact bytes of the
// native render — unchanged by the registry rerouting.
func TestLegacyAliasesByteIdentical(t *testing.T) {
	srv, ts, _ := multiServer(t)
	d := dates.New(2024, 4, 21)

	get := func(path string) []byte {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var wantCSV bytes.Buffer
	if err := nativeGen(t, srv).Generate(d).WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	if got := get("/v1/reports/" + d.String() + ".csv"); !bytes.Equal(got, wantCSV.Bytes()) {
		t.Error("legacy /v1/reports CSV differs from the native render")
	}

	wantDates, err := json.Marshal(DateRange{First: "2024-01-01", Last: "2024-12-31"})
	if err != nil {
		t.Fatal(err)
	}
	if got := get("/v1/dates"); !bytes.Equal(bytes.TrimSpace(got), wantDates) {
		t.Errorf("legacy /v1/dates = %q, want %q", got, wantDates)
	}

	// The series alias must serve the native generator's rows in the
	// legacy response shape.
	row := nativeGen(t, srv).Generate(d).Rows[0]
	q := "/v1/series/AS" + itoa(row.ASN) + "?cc=" + row.CC + "&from=2024-04-20&to=2024-04-22"
	want := SeriesResponse{ASN: row.ASN, Country: row.CC}
	for _, day := range dates.Range(dates.New(2024, 4, 20), dates.New(2024, 4, 22), 1) {
		for _, r := range nativeGen(t, srv).Generate(day).Rows {
			if r.ASN == row.ASN && r.CC == row.CC {
				want.Points = append(want.Points, SeriesPoint{Date: day.String(), Users: r.Users, Samples: r.Samples})
				break
			}
		}
	}
	var wantSeries bytes.Buffer
	if err := json.NewEncoder(&wantSeries).Encode(want); err != nil {
		t.Fatal(err)
	}
	if got := get(q); !bytes.Equal(got, wantSeries.Bytes()) {
		t.Errorf("legacy series alias differs:\n%q\nvs\n%q", got, wantSeries.Bytes())
	}
}

// TestRowKeyFind pins the series row lookup: key cells are in codec
// form, so an int column matches only a canonical decimal; the first
// row of a duplicated key wins; a key column the frame lacks, or a
// float one, matches nothing.
func TestRowKeyFind(t *testing.T) {
	f := source.NewFrame("rows", dates.New(2024, 1, 1))
	f.AddInts("AS").Ints = []int64{7, 2435, 2435, 7}
	f.AddStrings("CC").Strs = []string{"FR", "CN", "CN", "DE"}
	f.AddFloats("Users").Floats = []float64{1, 2, 3, 4}
	for _, tc := range []struct {
		cols, cells []string
		want        int
	}{
		{[]string{"AS", "CC"}, []string{"7", "FR"}, 0},
		{[]string{"AS", "CC"}, []string{"2435", "CN"}, 1},
		{[]string{"AS", "CC"}, []string{"7", "DE"}, 3},
		{[]string{"CC", "AS"}, []string{"DE", "7"}, 3},
		{[]string{"CC"}, []string{"CN"}, 1},
		{[]string{"AS", "CC"}, []string{"7", "CN"}, -1},
		{[]string{"AS", "CC"}, []string{"002435", "CN"}, -1},
		{[]string{"AS", "CC"}, []string{"+7", "FR"}, -1},
		{[]string{"AS", "CC"}, []string{"FR", "FR"}, -1},
		{[]string{"AS", "Nope"}, []string{"7", "FR"}, -1},
		{[]string{"Users"}, []string{"1"}, -1},
	} {
		if got := newRowKey(tc.cols, tc.cells).find(f); got != tc.want {
			t.Errorf("find(%v = %v) = %d, want %d", tc.cols, tc.cells, got, tc.want)
		}
	}
}

// TestGenericSeries exercises the generalized series route across three
// key shapes: apnic (AS + cc), itu (country key), cdn (org + cc).
func TestGenericSeries(t *testing.T) {
	srv, ts, _ := multiServer(t)
	d := dates.New(2024, 4, 10)

	getSeries := func(path string) GenericSeriesResponse {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		var sr GenericSeriesResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}

	rep := nativeGen(t, srv).Generate(d)
	row := rep.Rows[0]
	sr := getSeries("/v1/apnic/series/AS" + itoa(row.ASN) + "?cc=" + row.CC + "&from=2024-04-10&to=2024-04-10")
	if len(sr.Points) != 1 {
		t.Fatalf("apnic series: %+v", sr)
	}
	if got := sr.Points[0].Values["Estimated Users"]; got != row.Users {
		t.Errorf("apnic series users = %v, want %v", got, row.Users)
	}

	// A zero-padded ASN names the same AS on both series routes: the
	// generic route used to compare the raw digits with the AS column's
	// decimal cell and found nothing.
	padded := "AS00" + itoa(row.ASN) + "?cc=" + row.CC + "&from=2024-04-10&to=2024-04-10"
	sr = getSeries("/v1/apnic/series/" + padded)
	if len(sr.Points) != 1 || sr.Points[0].Values["Estimated Users"] != row.Users {
		t.Errorf("zero-padded generic apnic series: %+v", sr)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/series/" + padded)
	if err != nil {
		t.Fatal(err)
	}
	var legacy SeriesResponse
	err = json.NewDecoder(resp.Body).Decode(&legacy)
	resp.Body.Close()
	if err != nil || len(legacy.Points) != 1 || legacy.Points[0].Users != row.Users {
		t.Errorf("zero-padded legacy series: %+v (%v)", legacy, err)
	}

	sr = getSeries("/v1/itu/series/FR?from=2024-04-10&to=2024-04-10")
	if len(sr.Points) != 1 || sr.Points[0].Values["Users"] <= 0 {
		t.Fatalf("itu series: %+v", sr)
	}

	// Any (country, org) present in the CDN snapshot works as a key.
	f, err := srv.Registry().Frame("cdn", d)
	if err != nil {
		t.Fatal(err)
	}
	cc, org := f.Col("CC").Strs[0], f.Col("Org").Strs[0]
	sr = getSeries("/v1/cdn/series/" + org + "?cc=" + cc + "&from=2024-04-10&to=2024-04-10")
	if len(sr.Points) != 1 {
		t.Fatalf("cdn series: %+v", sr)
	}
	if _, ok := sr.Points[0].Values["Bytes"]; !ok {
		t.Errorf("cdn series point lacks Bytes: %+v", sr.Points[0])
	}

	// Missing cc on an org-keyed dataset is a 400.
	resp, err = ts.Client().Get(ts.URL + "/v1/cdn/series/" + org)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("cc-less cdn series = %d, want 400", resp.StatusCode)
	}
}

// TestDatasetReportJSON checks the bare-date route serves the frame as
// JSON and it parses back equal.
func TestDatasetReportJSON(t *testing.T) {
	srv, ts, _ := multiServer(t)
	d := dates.New(2024, 2, 2)
	resp, err := ts.Client().Get(ts.URL + "/v1/dnscount/reports/" + d.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	f, err := source.ReadJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.Registry().Frame("dnscount", d)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(want) {
		t.Fatal("JSON frame differs from generated frame")
	}
}
