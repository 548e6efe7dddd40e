package apnicweb

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
