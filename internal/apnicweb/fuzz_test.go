package apnicweb

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apnic"
	"repro/internal/dates"
	"repro/internal/source"
	"repro/internal/source/binfmt"
	"repro/internal/source/framez"
)

// FuzzReportRequest sends the generic report route an arbitrary {date}
// path segment with arbitrary Accept, Accept-Encoding and If-None-Match
// values. Whatever the input:
//
//   - the status is 200, 304, 400 or 404, and the handler never panics;
//   - a 304 answers a non-empty If-None-Match and carries no body;
//   - a gzip body answers an Accept-Encoding naming gzip or "*";
//   - a 200 decodes, after gunzip when gzip-coded, with the codec its
//     Content-Type names, to the apnic frame whose ContentHash its ETag
//     names.
func FuzzReportRequest(f *testing.F) {
	h := NewMultiServer(testW, 11, dates.New(2024, 12, 30), dates.New(2024, 12, 31), 0).Handler()
	serve := func(seg, accept, acceptEncoding, ifNoneMatch string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", "/v1/apnic/reports/x", nil)
		req.URL.Path = "/v1/apnic/reports/" + seg
		req.Header.Set("Accept", accept)
		req.Header.Set("Accept-Encoding", acceptEncoding)
		req.Header.Set("If-None-Match", ifNoneMatch)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	csvTag := serve("2024-12-31.csv", "", "", "").Header().Get("ETag")
	binzTag := serve("2024-12-30", framez.ContentType, "", "").Header().Get("ETag")
	for _, seed := range [][4]string{
		{"2024-12-31.csv", "", "", ""},
		{"2024-12-31.csv", "", "gzip", ""},
		{"2024-12-31.csv", "", "", csvTag},
		{"2024-12-31.csv", "", "", "W/" + csvTag + ", *"},
		{"2024-12-30", "", "x-gzip;q=0.5", ""},
		{"2024-12-30", "application/json", "*, gzip;q=0", ""},
		{"2024-12-30", binfmt.ContentType, "identity", ""},
		{"2024-12-30", framez.ContentType + ", " + binfmt.ContentType, "gzip", binzTag},
		{"2024-12-31.bin", "", "deflate, *;q=0.1", ""},
		{"2024-12-31.binz", "", "gzip", ""},
		{"2024-12-29", "", "", ""},
		{"2025-01-01.csv", "", "", ""},
		{"2024-13-01", "", "", ""},
		{"2024-12-31.csv.bin", "", "", ""},
		{"", "", "", "*"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}

	f.Fuzz(func(t *testing.T, seg, accept, acceptEncoding, ifNoneMatch string) {
		if strings.Contains(seg, "/") || seg == "." || seg == ".." {
			t.Skip("not a single path segment")
		}
		rec := serve(seg, accept, acceptEncoding, ifNoneMatch)
		hdr := rec.Header()
		gz := hdr.Get("Content-Encoding") == "gzip"
		if ae := strings.ToLower(acceptEncoding); gz && !strings.Contains(ae, "gzip") && !strings.Contains(ae, "*") {
			t.Fatalf("gzip body for Accept-Encoding %q", acceptEncoding)
		}
		switch rec.Code {
		case http.StatusBadRequest, http.StatusNotFound:
			return
		case http.StatusNotModified:
			if strings.TrimSpace(ifNoneMatch) == "" {
				t.Fatalf("304 without an If-None-Match")
			}
			if rec.Body.Len() != 0 {
				t.Fatalf("304 with a %d-byte body", rec.Body.Len())
			}
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for %q (Accept %q, Accept-Encoding %q, If-None-Match %q): %s",
				rec.Code, seg, accept, acceptEncoding, ifNoneMatch, rec.Body.Bytes())
		}

		body := rec.Body.Bytes()
		if gz {
			zr, err := gzip.NewReader(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("gzip body: %v", err)
			}
			if body, err = io.ReadAll(zr); err != nil {
				t.Fatalf("gunzip: %v", err)
			}
		}
		var frame *source.Frame
		var err error
		switch ct := hdr.Get("Content-Type"); ct {
		case "text/csv; charset=utf-8":
			frame, err = source.ReadCSV(bytes.NewReader(body))
		case "application/json":
			frame, err = source.ReadJSON(bytes.NewReader(body))
		case binfmt.ContentType:
			frame, err = binfmt.Decode(body)
		case framez.ContentType:
			frame, err = framez.Decode(body)
		default:
			t.Fatalf("200 with Content-Type %q", ct)
		}
		if err != nil {
			t.Fatalf("decoding %s body: %v", hdr.Get("Content-Type"), err)
		}
		if frame.Source != "apnic" {
			t.Fatalf("200 carries a %q frame", frame.Source)
		}
		tag, _, _ := strings.Cut(strings.Trim(hdr.Get("ETag"), `"`), "-")
		if want := frame.ContentHash(); tag != want {
			t.Fatalf("ETag %s names other content than the body (hash %s)", hdr.Get("ETag"), want)
		}
	})
}

// FuzzSeriesRequest sends an arbitrary key, cc, from, to and step to a
// series route: route 0 is the legacy /v1/series/{asn}, and route n > 0
// the generic /v1/{dataset}/series/{key} of the nth dataset. Whatever
// the input, the status is 200, 400 or 404 and the handler never
// panics; a 200 decodes strictly as its route's JSON shape, and every
// point lies inside the served range, in increasing date order.
func FuzzSeriesRequest(f *testing.F) {
	first, last := dates.New(2024, 12, 30), dates.New(2024, 12, 31)
	srv := NewMultiServer(testW, 11, first, last, 0)
	h := srv.Handler()
	// serve returns the response and the generic route's dataset, or ""
	// for the legacy route.
	serve := func(route uint8, key, cc, from, to, step string) (*httptest.ResponseRecorder, string) {
		dataset, path := "", "/v1/series/"+key
		if n := int(route) % (len(allDatasets) + 1); n > 0 {
			dataset = allDatasets[n-1]
			path = "/v1/" + dataset + "/series/" + key
		}
		q := url.Values{}
		for k, v := range map[string]string{"cc": cc, "from": from, "to": to, "step": step} {
			if v != "" {
				q.Set(k, v)
			}
		}
		req := httptest.NewRequest("GET", "/v1/series/x", nil)
		req.URL.Path, req.URL.RawQuery = path, q.Encode()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec, dataset
	}

	apnicDay, err := srv.Registry().Frame(apnic.DatasetName, last)
	if err != nil {
		f.Fatal(err)
	}
	cdnDay, err := srv.Registry().Frame("cdn", last)
	if err != nil {
		f.Fatal(err)
	}
	asn := "AS" + strconv.FormatInt(apnicDay.Col("AS").Ints[0], 10)
	asnCC, org, orgCC := apnicDay.Col("CC").Strs[0], cdnDay.Col("Org").Strs[0], cdnDay.Col("CC").Strs[0]
	for _, seed := range []struct {
		route                   uint8
		key, cc, from, to, step string
	}{
		{0, asn, asnCC, "", "", ""},
		{0, asn, asnCC, "2024-12-31", "2024-12-31", "1"},
		{0, "AS00" + asn[2:], asnCC, "2024-01-01", "2025-06-01", "2"},
		{1, asn, asnCC, "2024-12-30", "", "7"},
		{2, org, orgCC, "", "2024-12-31", ""},
		{3, "FR", "", "", "", ""},
		{3, asnCC, "XX", "2024-12-30", "2024-12-30", ""},
		{4, org, orgCC, "", "", ""},
		{0, "AS4294967296", "FR", "", "", ""},
		{0, "13335", "FR", "", "", ""},
		{1, asn, "", "", "", ""},
		{2, org, orgCC, "2024-12-31", "2024-12-30", ""},
		{2, org, orgCC, "2025-01-01", "", ""},
		{5, org, orgCC, "", "", "0"},
		{6, "", orgCC, "", "", "-3"},
		{7, org, orgCC, "2024-02-30", "", ""},
	} {
		f.Add(seed.route, seed.key, seed.cc, seed.from, seed.to, seed.step)
	}

	f.Fuzz(func(t *testing.T, route uint8, key, cc, from, to, step string) {
		if strings.Contains(key, "/") || key == "." || key == ".." {
			t.Skip("not a single path segment")
		}
		rec, dataset := serve(route, key, cc, from, to, step)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusNotFound:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for route %d key %q cc %q from %q to %q step %q: %s",
				rec.Code, route, key, cc, from, to, step, rec.Body.Bytes())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("200 with Content-Type %q", ct)
		}
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		var days []string
		if dataset == "" {
			var resp SeriesResponse
			if err := dec.Decode(&resp); err != nil {
				t.Fatalf("legacy series body: %v", err)
			}
			for _, p := range resp.Points {
				days = append(days, p.Date)
			}
		} else {
			var resp GenericSeriesResponse
			if err := dec.Decode(&resp); err != nil {
				t.Fatalf("generic series body: %v", err)
			}
			if resp.Dataset != dataset {
				t.Fatalf("series of %q served on the %q route", resp.Dataset, dataset)
			}
			for _, p := range resp.Points {
				days = append(days, p.Date)
			}
		}
		prev := first.AddDays(-1)
		for _, s := range days {
			d, err := dates.Parse(s)
			if err != nil || !prev.Before(d) || d.After(last) {
				t.Fatalf("point dated %q after %s, outside %s..%s or out of order", s, prev, first, last)
			}
			prev = d
		}
	})
}

// FuzzHeaderNegotiation checks the allocation-free header parsers
// (etagMatch, acceptsGzip, acceptsMediaType, qValue) against plain
// strings.Split references on arbitrary header lists. The tag the list
// is matched against is also arbitrary, except that it is never empty:
// the server sends no empty ETag or media type, and only an empty one
// could match the trailing empty member a Split yields after a final
// comma, which the parsers' walk does not visit.
func FuzzHeaderNegotiation(f *testing.F) {
	for _, seed := range [][2]string{
		{`"abc"`, `"abc"`},
		{`"def", W/"abc"`, `"abc"`},
		{` * `, `"abc"`},
		{`"a",,"b",`, `W/"b"`},
		{"gzip;q=0, *", "gzip"},
		{"*, gzip;q=0", "gzip"},
		{"x-gzip;q=0.5;level=1", "x-gzip"},
		{"deflate, *;q=0.1", "identity"},
		{"GZIP; Q=0.000", "gzip"},
		{"*;q=-1, gzip;q=nan", "*"},
		{framez.ContentType + ";q=0, " + binfmt.ContentType, framez.ContentType},
		{"application/*, */*;q=0.8", "application/json"},
		{";q=0;q=1", ""},
		{"", ""},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, list, tag string) {
		if got, want := acceptsGzip(list), refAcceptsGzip(list); got != want {
			t.Fatalf("acceptsGzip(%q) = %v, reference %v", list, got, want)
		}
		gotQ, gotOK := qValue(list)
		wantQ, wantOK := refQValue(list)
		if gotOK != wantOK || !(gotQ == wantQ || gotQ != gotQ && wantQ != wantQ) {
			t.Fatalf("qValue(%q) = %v, %v, reference %v, %v", list, gotQ, gotOK, wantQ, wantOK)
		}
		for _, mt := range []string{framez.ContentType, binfmt.ContentType, tag} {
			if mt == "" {
				continue
			}
			if got, want := acceptsMediaType(list, mt), refAcceptsMediaType(list, mt); got != want {
				t.Fatalf("acceptsMediaType(%q, %q) = %v, reference %v", list, mt, got, want)
			}
		}
		if strings.TrimPrefix(tag, "W/") == "" {
			return
		}
		if got, want := etagMatch(list, tag), refETagMatch(list, tag); got != want {
			t.Fatalf("etagMatch(%q, %q) = %v, reference %v", list, tag, got, want)
		}
	})
}

// refQValue is qValue written with strings.Split.
func refQValue(params string) (float64, bool) {
	for _, p := range strings.Split(params, ";") {
		k, v, found := strings.Cut(strings.TrimSpace(p), "=")
		if !found || !strings.EqualFold(strings.TrimSpace(k), "q") {
			continue
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil || q < 0 {
			return 1, true
		}
		return q, true
	}
	return 0, false
}

// refMember is one member of a comma-separated header list: its value
// and whether a q parameter of zero refuses it.
type refMember struct {
	value   string
	refused bool
}

// refMembers splits a header list with strings.Split.
func refMembers(list string) []refMember {
	var out []refMember
	for _, part := range strings.Split(list, ",") {
		value, params, _ := strings.Cut(part, ";")
		q, ok := refQValue(params)
		out = append(out, refMember{value: strings.TrimSpace(value), refused: ok && q == 0})
	}
	return out
}

// refAcceptsGzip: the first member naming gzip or x-gzip decides;
// without one, any "*" that is not refused accepts.
func refAcceptsGzip(list string) bool {
	wildcard := false
	for _, m := range refMembers(list) {
		if strings.EqualFold(m.value, "gzip") || strings.EqualFold(m.value, "x-gzip") {
			return !m.refused
		}
		if m.value == "*" && !m.refused {
			wildcard = true
		}
	}
	return wildcard
}

// refAcceptsMediaType: the first member naming want decides.
func refAcceptsMediaType(list, want string) bool {
	for _, m := range refMembers(list) {
		if strings.EqualFold(m.value, want) {
			return !m.refused
		}
	}
	return false
}

// refETagMatch: "*" matches anything; otherwise some member equals the
// tag, weak prefixes ignored on both sides.
func refETagMatch(list, etag string) bool {
	list = strings.TrimSpace(list)
	if list == "" {
		return false
	}
	if list == "*" {
		return true
	}
	for _, tag := range strings.Split(list, ",") {
		if strings.TrimPrefix(strings.TrimSpace(tag), "W/") == strings.TrimPrefix(etag, "W/") {
			return true
		}
	}
	return false
}
