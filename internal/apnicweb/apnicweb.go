// Package apnicweb serves and fetches the simulated datasets over HTTP.
// Historically it published only the APNIC per-AS reports, mirroring
// stats.labs.apnic.net; it now serves every dataset registered in a
// source.Registry under generic routes, with the original APNIC routes
// kept as byte-identical compatibility aliases.
//
// Generic endpoints (one family per registered dataset):
//
//	GET /v1/{dataset}/dates                    served range + cadence, JSON
//	GET /v1/{dataset}/reports/{date}.csv       one day's frame as CSV
//	GET /v1/{dataset}/reports/{date}           one day's frame as JSON
//	GET /v1/{dataset}/series/{key}?cc=XX&from=&to=&step=   per-row series, JSON
//
// Legacy APNIC aliases (responses byte-identical to the original APNIC routes):
//
//	GET /v1/reports/{date}                     <YYYY-MM-DD>.csv, native CSV
//	GET /v1/dates                              served date range, JSON
//	GET /v1/series/{asn}?cc=XX&from=&to=&step= per-AS time series, JSON
//	    (the footnote-2 per-ASN view of stats.labs.apnic.net)
//
// Plus:
//
//	GET /v1/live/{country}                     rolling streaming estimate, JSON (see live.go)
//	GET /metrics                               Prometheus text (?format=json for JSON)
//	GET /healthz                               liveness probe
//
// Handler declares each route once, in one mux: a dataset's routes are
// literal patterns (/v1/cdn/dates), registered per dataset, so the
// registration fixes the route's dataset and its metric label, and
// nothing parses a request's path again. Every request is counted by
// the obsv middleware under its route's label, or "other" when no route
// serves it, so request counts, status classes and latency histograms
// appear on /metrics alongside the cache and render-error series.
// Errors on generic routes carry a JSON body; legacy routes keep their
// original plain-text errors.
//
// Report routes exploit day immutability (every dataset-day is a pure
// function of (seed, date)): responses carry strong ETags derived from
// the frame content hash, If-None-Match revalidation answers 304 without
// rendering, Accept-Encoding negotiates gzip bodies pre-compressed once
// per resident day, and every report body is served whole with its
// Content-Length. The legacy CSV is one more representation on the same
// path. See conditional.go and serveReport.
//
// Each dataset-day the server touches is one source.Artifact, evicted
// whole with the day. Besides the frame it holds, each part built on
// first use: the content hash (the ETag base), the .bin and .binz
// encodings, the legacy APNIC CSV with its body hash, and one gzip body
// per representation kept at exact size. Series routes read their days
// cold (source.Registry.Frame), so a long series does not flush the hot
// days.
//
// Identity CSV and JSON are held weakly (source.Artifact.WeakBody): a
// body is rendered once and served until the garbage collector finds
// no request holding it, then rendered again, byte-identical, by the
// next request that wants it. Held strongly for every hot day, those
// bodies raised the server's peak memory by about a quarter, because
// the collector paces itself at twice the heap it keeps; held weakly,
// they never count toward that heap. The trade is one render per body
// per collection cycle instead of one per day, which
// apnicweb_text_renders_total{repr="csv"|"json"} counts.
package apnicweb

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apnic"
	"repro/internal/dates"
	"repro/internal/obsv"
	"repro/internal/source"
	"repro/internal/source/binfmt"
	"repro/internal/source/bundle"
	"repro/internal/source/framez"
	"repro/internal/world"
)

// Server serves generated reports for a date range.
//
// The server keeps no day cache of its own. Every dataset-day lives in
// one place, the registry's artifact (source.Registry.Artifact): the
// frame plus its content hash and every encoded body: bin, binz, legacy
// CSV and gzip held with the day, identity CSV and JSON held weakly
// until a garbage collection finds no request using them. Concurrent
// requests for one day share one generation and one fill per part;
// distinct days fill in parallel. The artifact cache is a bounded LRU
// per dataset (NewMultiServer's cacheDays sets the capacity, default
// source.DefaultCacheDays), and a day's parts are evicted with it.
// Eviction and collection are safe because every part is a pure
// function of (seed, date): a dropped part rebuilds byte-identically on
// the next request.
type Server struct {
	reg   *source.Registry
	first dates.Date
	last  dates.Date

	// Log, when non-nil, receives structured request logs and render
	// failures. Set it before calling Handler.
	Log *log.Logger

	metrics  *obsv.Registry
	writeCSV func(*apnic.Report, io.Writer) error // seam for render-failure tests

	// The report representations: the frame as weakly held CSV and
	// JSON text, its held binary encodings, and the legacy APNIC CSV.
	csvText, jsonText, bin, binz, legacy repr

	// The /v1/dates body; it never changes, so it is built once.
	dates []byte

	renderErrs  *obsv.Counter
	notModified *obsv.Counter
	encGzip     *obsv.Counter
	encIdentity *obsv.Counter

	// liveState holds the optional streaming estimator behind
	// /v1/live/{country}; see live.go and SetLive.
	liveState
}

// NewMultiServer builds the full seven-dataset roster over one world and
// serves every dataset under /v1/{dataset}/..., with the legacy APNIC
// routes aliasing the "apnic" dataset. cacheDays bounds each dataset's
// artifact cache (source.DefaultCacheDays when < 1).
func NewMultiServer(w *world.World, seed uint64, first, last dates.Date, cacheDays int) *Server {
	metrics := obsv.NewRegistry()
	b := bundle.New(w, seed, bundle.Config{Metrics: metrics, CacheDays: cacheDays})
	s := &Server{
		reg:      b.Registry,
		first:    first,
		last:     last,
		metrics:  metrics,
		writeCSV: (*apnic.Report).WriteCSV,
		csvText: repr{
			name: "csv", contentType: "text/csv; charset=utf-8", gzip: true, render: (*source.Frame).CSVBytes,
			renders: metrics.Counter(`apnicweb_text_renders_total{repr="csv"}`),
		},
		jsonText: repr{
			name: "json", contentType: "application/json", gzip: true, render: (*source.Frame).JSONBytes,
			renders: metrics.Counter(`apnicweb_text_renders_total{repr="json"}`),
		},
		bin: repr{name: "bin", contentType: binfmt.ContentType, gzip: true, held: encoded((*source.Artifact).Bin)},
		// Already entropy-coded: gzip on top costs CPU on both ends for
		// negative savings, so binz is identity-only.
		binz:  repr{name: "binz", contentType: framez.ContentType, held: encoded((*source.Artifact).Binz)},
		dates: jsonBody(DateRange{First: first.String(), Last: last.String()}),
	}
	// The legacy bytes differ from the frame-CSV codec's, so they are a
	// part of their own ("legacy", and "legacy.gz" gzipped).
	legacyCSV := s.legacyCSV
	s.legacy = repr{
		name: "legacy", contentType: "text/csv; charset=utf-8", gzip: true, legacy: true,
		held: func(a *source.Artifact) source.Body { return a.Body("legacy", legacyCSV) },
	}
	s.renderErrs = metrics.Counter("apnicweb_render_errors_total")
	s.notModified = metrics.Counter("apnicweb_not_modified_total")
	s.encGzip = metrics.Counter(`apnicweb_responses_total{encoding="gzip"}`)
	s.encIdentity = metrics.Counter(`apnicweb_responses_total{encoding="identity"}`)
	// Day-cache series (source_frame_*{dataset=...}) are registered by the
	// source layer on the same registry.
	return s
}

// repr is one representation of a dataset-day on the report routes,
// with the facts of it serveReport needs.
type repr struct {
	name        string // ETag variant and artifact part: "csv", "json", "bin", "binz", "legacy"
	contentType string
	gzip        bool // negotiates a gzip body
	// legacy marks the APNIC alias, /v1/reports/{date}.csv: its path
	// alone fixes its representation, so it varies on Accept-Encoding
	// alone, and its errors are plain text.
	legacy bool
	// held returns the identity body the day's artifact holds (bin,
	// binz, legacy), with its validator when the bytes are their own
	// canonical form. It is nil for the text representations, whose
	// weakly held bodies render renders.
	held    func(*source.Artifact) source.Body
	render  func(*source.Frame) ([]byte, error) // seam for render-failure tests
	renders *obsv.Counter
}

// encoded adapts an artifact encoding (Bin, Binz) to repr.held.
func encoded(enc func(*source.Artifact) ([]byte, error)) func(*source.Artifact) source.Body {
	return func(a *source.Artifact) source.Body {
		b, err := enc(a)
		return source.Body{Bytes: b, Err: err}
	}
}

// fill renders a day's text body for Artifact.WeakBody, counting the
// render.
func (p *repr) fill(f *source.Frame) ([]byte, error) {
	p.renders.Inc()
	return p.render(f)
}

// fail writes an error in the shape of the representation's route:
// plain text on the legacy route, JSON on the generic ones.
func (p *repr) fail(w http.ResponseWriter, code int, msg string) {
	if p.legacy {
		http.Error(w, msg, code)
		return
	}
	jsonError(w, code, msg)
}

// jsonBody is v as json.Encoder writes it, trailing newline included.
func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // v is one of this package's plain string structs
	}
	return append(b, '\n')
}

// Metrics exposes the server's registry so embedding binaries can add
// their own series and dump a snapshot on exit.
func (s *Server) Metrics() *obsv.Registry { return s.metrics }

// Registry exposes the dataset roster the server serves.
func (s *Server) Registry() *source.Registry { return s.reg }

// Handler returns the HTTP handler, instrumented with per-route metrics
// and (when s.Log is set) request logging.
//
// Each route is declared once, in one mux, under a GET pattern whose
// wildcards {x} become :x in its metric label. The datasets served are
// those registered when Handler is called, each under literal patterns
// of its own (/v1/cdn/dates), which never conflict with the legacy
// literals the way a {dataset} wildcard would. The /v1/ catch-all is
// less specific than every route and answers what none of them serves.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	labels := strings.NewReplacer("{", ":", "}", "")
	handle := func(path string, h http.HandlerFunc) {
		mux.Handle("GET "+path, obsv.Labeled(labels.Replace(path), h))
	}
	handle("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	handle("/metrics", s.metrics.Handler().ServeHTTP)
	handle("/v1/dates", s.handleDates)
	handle("/v1/reports/{date}", s.handleReport)
	handle("/v1/series/{asn}", s.handleSeries)
	handle("/v1/live/{cc}", s.handleLive)
	for _, name := range s.reg.Names() {
		src, _ := s.reg.Lookup(name)
		datesBody := jsonBody(DatasetDates{
			Dataset: name, First: s.first.String(), Last: s.last.String(), Cadence: src.Window().Cadence,
		})
		handle("/v1/"+name+"/dates", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(datesBody)
		})
		handle("/v1/"+name+"/reports/{date}", func(w http.ResponseWriter, r *http.Request) {
			s.handleDatasetReport(w, r, name)
		})
		handle("/v1/"+name+"/series/{key}", func(w http.ResponseWriter, r *http.Request) {
			s.handleDatasetSeries(w, r, name)
		})
	}
	mux.HandleFunc("/v1/", s.handleUnrouted)
	mw := &obsv.HTTPMetrics{Registry: s.metrics, Log: s.Log}
	return mw.Wrap(mux)
}

// handleUnrouted answers a /v1/ path no route serves with a JSON 404
// that names the dataset when the request has a dataset route's method
// and shape but its dataset is not served.
func (s *Server) handleUnrouted(w http.ResponseWriter, r *http.Request) {
	name, tail, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/"), "/")
	family, arg, _ := strings.Cut(tail, "/")
	datasetShaped := tail == "dates" || (family == "reports" || family == "series") && arg != "" && !strings.Contains(arg, "/")
	if name != "" && datasetShaped && (r.Method == http.MethodGet || r.Method == http.MethodHead) {
		jsonError(w, http.StatusNotFound,
			fmt.Sprintf("unknown dataset %q (served: %s)", name, strings.Join(s.reg.Names(), ", ")))
		return
	}
	jsonError(w, http.StatusNotFound, "no such route")
}

// errorBody is the JSON error shape of the generic dataset routes.
type errorBody struct {
	Error string `json:"error"`
}

// jsonError writes a JSON error body, the contract of every generic
// /v1/{dataset}/... route (legacy routes keep plain-text errors).
func jsonError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

// DatasetDates is the /v1/{dataset}/dates response body.
type DatasetDates struct {
	Dataset string `json:"dataset"`
	First   string `json:"first"`
	Last    string `json:"last"`
	Cadence string `json:"cadence"`
}

// handleDatasetReport serves one dataset-day in one of four
// representations: "{date}.csv" as frame CSV, "{date}.bin" (or a bare
// date with Accept: application/x-frame-bin) as the binary columnar
// encoding, "{date}.binz" (or Accept: application/x-frame-binz) as the
// compressed binary encoding, and a bare "{date}" otherwise as frame
// JSON. A client naming both frame media types gets binz, the denser
// one; the wildcard types a browser sends (*/*, application/*) name
// neither, so it keeps getting JSON.
func (s *Server) handleDatasetReport(w http.ResponseWriter, r *http.Request, dataset string) {
	name, p := r.PathValue("date"), &s.jsonText
	if trimmed, ok := strings.CutSuffix(name, ".csv"); ok {
		name, p = trimmed, &s.csvText
	} else if trimmed, ok := strings.CutSuffix(name, framez.Suffix); ok {
		name, p = trimmed, &s.binz
	} else if trimmed, ok := strings.CutSuffix(name, binfmt.Suffix); ok {
		name, p = trimmed, &s.bin
	} else if accept := r.Header.Get("Accept"); acceptsMediaType(accept, framez.ContentType) {
		p = &s.binz
	} else if acceptsMediaType(accept, binfmt.ContentType) {
		p = &s.bin
	}
	d, err := dates.Parse(name)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad date (want YYYY-MM-DD, YYYY-MM-DD.csv, YYYY-MM-DD.bin or YYYY-MM-DD.binz)")
		return
	}
	s.serveReport(w, r, dataset, d, p)
}

// handleReport serves /v1/reports/{date}.csv, the legacy alias of the
// apnic dataset in the native report CSV layout.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	name, ok := strings.CutSuffix(r.PathValue("date"), ".csv")
	if !ok {
		http.Error(w, "want /v1/reports/<YYYY-MM-DD>.csv", http.StatusNotFound)
		return
	}
	d, err := dates.Parse(name)
	if err != nil {
		http.Error(w, "bad date", http.StatusBadRequest)
		return
	}
	s.serveReport(w, r, apnic.DatasetName, d, &s.legacy)
}

// serveReport serves one dataset-day in representation p: the day's
// artifact, ETag / If-None-Match validation, Accept-Encoding
// negotiation, gzip bodies memoized on the artifact, and identity
// bodies written whole. Every representation carries a strong ETag,
// variant-suffixed so no two representations share a validator: the
// frame content hash, or the body's own hash where the bytes are their
// canonical form (legacy). Held bodies (bin, binz, legacy) are fetched
// before validation; text bodies only once no 304, HEAD or gzip hit can
// answer without them.
//
// Ordering is load-bearing. The 304 check runs before any rendering so a
// revalidation costs one memoized hash lookup, and HEAD answers before
// any rendering too. The gzip body is compressed into the artifact from
// the identity body — never teed off a live response — so a
// mid-download disconnect cannot poison it. Every fallible step runs
// before the first body byte, so a failure is a clean 500.
func (s *Server) serveReport(w http.ResponseWriter, r *http.Request, dataset string, d dates.Date, p *repr) {
	if d.Before(s.first) || d.After(s.last) {
		p.fail(w, http.StatusNotFound, "date out of served range")
		return
	}
	gz := p.gzip && acceptsGzip(r.Header.Get("Accept-Encoding"))
	variant := p.name
	if gz {
		variant += ".gz"
	}
	a, err := s.reg.Artifact(dataset, d)
	var held source.Body
	if err == nil && p.held != nil {
		held = p.held(a)
		err = held.Err
	}
	if err != nil {
		s.renderFailed(w, p, dataset, d, variant, err)
		return
	}
	hash := held.Hash
	if hash == "" {
		hash = a.Hash()
	}
	etag := source.FormatETag(hash, variant)
	h := w.Header()
	if p.legacy {
		// The legacy path fixes its representation; its headers (like its
		// bytes) are pinned by the compatibility tests.
		h.Set("Vary", "Accept-Encoding")
	} else {
		// The generic routes pick csv/json/bin/binz from the Accept header
		// (the bare-date path most visibly): without Accept in Vary a
		// shared cache could answer a browser's JSON request with a binary
		// body stored for a frame client. Sent on 304s too — revalidation
		// updates stored response metadata.
		h.Set("Vary", "Accept, Accept-Encoding")
	}
	h.Set("ETag", etag)
	h.Set("Cache-Control", "public, max-age=86400")
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		s.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", p.contentType)
	if r.Method == http.MethodHead {
		// Go 1.22 "GET /..." patterns also match HEAD, and before this
		// check a HEAD request fell through to the body paths: the text
		// routes rendered a full body net/http then had to discard.
		// Answer with the negotiated headers alone. Content-Length is
		// declared only for an identity body held with the day; gzip and
		// text lengths are unknown without rendering, which is exactly
		// the work HEAD exists to skip.
		if gz {
			h.Set("Content-Encoding", "gzip")
			s.encGzip.Inc()
		} else {
			if p.held != nil {
				h.Set("Content-Length", strconv.Itoa(len(held.Bytes)))
			}
			s.encIdentity.Inc()
		}
		w.WriteHeader(http.StatusOK)
		return
	}
	var body []byte
	if gz {
		body, err = s.gzipBody(a, p, held.Bytes)
	} else {
		body, err = p.identity(a, held.Bytes)
	}
	if err != nil {
		s.renderFailed(w, p, dataset, d, variant, err)
		return
	}
	if gz {
		h.Set("Content-Encoding", "gzip")
		s.encGzip.Inc()
	} else {
		s.encIdentity.Inc()
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// renderFailed answers a report whose day or body failed to build:
// counted, logged, and a 500 in the route's error shape, stripped of
// the success-only headers (a 500 carrying a public max-age
// Cache-Control, or a validator, could get cached).
func (s *Server) renderFailed(w http.ResponseWriter, p *repr, dataset string, d dates.Date, variant string, err error) {
	s.renderErrs.Inc()
	if s.Log != nil {
		s.Log.Printf("render error dataset=%s repr=%s date=%s err=%q", dataset, variant, d, err)
	}
	h := w.Header()
	for _, k := range []string{"ETag", "Cache-Control", "Vary", "Content-Type"} {
		h.Del(k)
	}
	p.fail(w, http.StatusInternalServerError, "report generation failed: "+err.Error())
}

// identity returns the identity body of day a in representation p:
// the held bytes, or the weakly held text body, rendered again if the
// collector dropped it.
func (p *repr) identity(a *source.Artifact, held []byte) ([]byte, error) {
	if p.held != nil {
		return held, nil
	}
	return a.WeakBody(p.name, p.fill)
}

// gzipWriters pools gzip.Writer instances for the gzip body fill path.
// A gzip writer carries ~1.3MB of deflate state (hash chains, window,
// output buffers); constructing one per fill made every cold gzip
// request pay that allocation and the GC churn behind it.
// Reset rebinds a pooled writer to a new destination with the same
// BestSpeed level, and gzip output is a pure function of (input, level),
// so reuse is byte-identical to a fresh writer — pinned by
// TestGzipWriterPoolByteIdentical.
var gzipWriters = sync.Pool{
	New: func() any {
		zw, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
		return zw
	},
}

// gzipBufs pools the buffers gzip fills compress into. The memo keeps
// an exact-size copy of each body, so a pooled buffer's growth is paid
// once, not left behind as garbage by every fill.
var gzipBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// gzipBody returns the gzip representation, compressed at most once per
// representation while the day's artifact is resident (memoized under
// the ETag variant, e.g. "csv.gz"). The fill compresses the identity
// body the request holds, never a client connection's bytes, so partial
// client reads cannot poison it; and gzip output is deterministic for a
// fixed input and level, so a refill after eviction is byte-identical.
func (s *Server) gzipBody(a *source.Artifact, p *repr, held []byte) ([]byte, error) {
	gz := a.Body(p.name+".gz", func(*source.Frame) source.Body {
		body, err := p.identity(a, held)
		if err != nil {
			return source.Body{Err: err}
		}
		buf := gzipBufs.Get().(*bytes.Buffer)
		defer gzipBufs.Put(buf)
		buf.Reset()
		zw := gzipWriters.Get().(*gzip.Writer)
		zw.Reset(buf)
		_, err = zw.Write(body)
		if cerr := zw.Close(); err == nil {
			err = cerr
		}
		// Pool even after an error: Reset clears sticky write errors, and
		// a closed writer is reusable by contract.
		gzipWriters.Put(zw)
		if err != nil {
			return source.Body{Err: err}
		}
		// The body stays resident with the day: keep an exact-size copy,
		// not the pooled buffer.
		return source.Body{Bytes: bytes.Clone(buf.Bytes())}
	})
	return gz.Bytes, gz.Err
}

// GenericSeriesPoint is one date of a generic per-row series: every
// numeric column of the matched row.
type GenericSeriesPoint struct {
	Date   string             `json:"date"`
	Values map[string]float64 `json:"values"`
}

// GenericSeriesResponse is the /v1/{dataset}/series body.
type GenericSeriesResponse struct {
	Dataset string               `json:"dataset"`
	Key     string               `json:"key"`
	Country string               `json:"cc,omitempty"`
	Points  []GenericSeriesPoint `json:"points"`
}

// errNotASKey is seriesSelector's error for an apnic key without its
// "AS" prefix; the legacy series route answers it 404, in its own words.
var errNotASKey = errors.New("want /v1/" + apnic.DatasetName + "/series/AS<asn>")

// seriesSelector maps a dataset's route key to the frame columns that
// identify one row and the cells to find in them. Unified rule: itu rows
// are keyed by country alone (the key IS the cc); apnic rows by (AS, cc);
// every per-(country, org) dataset by (Org, cc). The ASN is parsed and
// re-formatted, so "AS002435" finds the row of AS2435.
func seriesSelector(dataset, key, cc string) (cols, cells []string, country string, err error) {
	switch dataset {
	case "itu":
		return []string{"CC"}, []string{key}, "", nil
	case apnic.DatasetName:
		digits, ok := strings.CutPrefix(key, "AS")
		if !ok {
			return nil, nil, "", errNotASKey
		}
		asn, err := strconv.ParseUint(digits, 10, 32)
		if err != nil {
			return nil, nil, "", fmt.Errorf("bad ASN")
		}
		if cc == "" {
			return nil, nil, "", fmt.Errorf("missing cc parameter")
		}
		return apnicSeriesCols, []string{strconv.FormatUint(asn, 10), cc}, cc, nil
	default:
		if cc == "" {
			return nil, nil, "", fmt.Errorf("missing cc parameter")
		}
		return []string{"Org", "CC"}, []string{key, cc}, cc, nil
	}
}

// apnicSeriesCols identify one APNIC row: the paper's per-(country, AS)
// series identity, shared by the generic and legacy series routes.
var apnicSeriesCols = []string{"AS", "CC"}

// seriesRows calls visit with each day of days whose frame holds the row
// keyed by cells over cols. Days are cold reads (source.Registry.Frame),
// so a long series does not flush the days other requests keep hot.
func (s *Server) seriesRows(dataset string, days []dates.Date, cols, cells []string, visit func(d dates.Date, f *source.Frame, row int)) error {
	key := newRowKey(cols, cells)
	for _, d := range days {
		f, err := s.reg.Frame(dataset, d)
		if err != nil {
			return err
		}
		if row := key.find(f); row >= 0 {
			visit(d, f, row)
		}
	}
	return nil
}

// rowKey matches cells over named columns in codec form (Column.Cell),
// each cell parsed once: an int column matches only a canonical decimal,
// and find compares int64s and strings without formatting a row's cell.
type rowKey struct {
	cols, cells []string
	ints        []int64
	isInt       []bool
}

func newRowKey(cols, cells []string) rowKey {
	k := rowKey{cols, cells, make([]int64, len(cells)), make([]bool, len(cells))}
	for i, c := range cells {
		v, err := strconv.ParseInt(c, 10, 64)
		k.ints[i], k.isInt[i] = v, err == nil && strconv.FormatInt(v, 10) == c
	}
	return k
}

// find returns f's first matching row, or -1. A key column f lacks
// matches nothing, nor does a float one: no series is keyed on one.
// The first key column is scanned with a typed loop; the others are
// checked only on its hits. Keys have at most two columns, so the
// column list stays on the stack.
func (k rowKey) find(f *source.Frame) int {
	var buf [2]*source.Column
	cs := buf[:0]
	for i, name := range k.cols {
		c := f.Col(name)
		if c == nil || c.Kind == source.Float || c.Kind == source.Int && !k.isInt[i] {
			return -1
		}
		cs = append(cs, c)
	}
	if first := cs[0]; first.Kind == source.Int {
		for row, v := range first.Ints {
			if v == k.ints[0] && k.matchRest(cs, row) {
				return row
			}
		}
	} else {
		for row, v := range first.Strs {
			if v == k.cells[0] && k.matchRest(cs, row) {
				return row
			}
		}
	}
	return -1
}

// matchRest reports whether row holds the key in every column after the
// first.
func (k rowKey) matchRest(cs []*source.Column, row int) bool {
	for i := 1; i < len(cs); i++ {
		if c := cs[i]; c.Kind == source.Int && c.Ints[row] != k.ints[i] ||
			c.Kind == source.String && c.Strs[row] != k.cells[i] {
			return false
		}
	}
	return true
}

// handleDatasetSeries serves a per-row time series for any dataset: the
// generic analogue of the legacy per-AS series route.
func (s *Server) handleDatasetSeries(w http.ResponseWriter, r *http.Request, dataset string) {
	q := r.URL.Query()
	cols, cells, cc, err := seriesSelector(dataset, r.PathValue("key"), q.Get("cc"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	from, to, step, ok := s.seriesRange(q, func(code int, msg string) { jsonError(w, code, msg) })
	if !ok {
		return
	}
	resp := GenericSeriesResponse{Dataset: dataset, Key: r.PathValue("key"), Country: cc}
	err = s.seriesRows(dataset, dates.Range(from, to, step), cols, cells, func(d dates.Date, f *source.Frame, i int) {
		vals := map[string]float64{}
		for _, c := range f.Cols {
			if slices.Contains(cols, c.Name) {
				continue
			}
			switch c.Kind {
			case source.Int:
				vals[c.Name] = float64(c.Ints[i])
			case source.Float:
				vals[c.Name] = c.Floats[i]
			}
		}
		resp.Points = append(resp.Points, GenericSeriesPoint{Date: d.String(), Values: vals})
	})
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// seriesRange parses and clips the shared from/to/step query parameters,
// reporting errors through fail (legacy routes pass http.Error, generic
// routes pass jsonError).
func (s *Server) seriesRange(q url.Values, fail func(int, string)) (from, to dates.Date, step int, ok bool) {
	var err error
	from, to = s.first, s.last
	if v := q.Get("from"); v != "" {
		if from, err = dates.Parse(v); err != nil {
			fail(http.StatusBadRequest, "bad from date")
			return
		}
	}
	if v := q.Get("to"); v != "" {
		if to, err = dates.Parse(v); err != nil {
			fail(http.StatusBadRequest, "bad to date")
			return
		}
	}
	if from.After(to) {
		// This used to fall through and return a silently empty series,
		// indistinguishable from "row not present" — reject it instead.
		fail(http.StatusBadRequest, "from is after to")
		return
	}
	step = 1
	if v := q.Get("step"); v != "" {
		if step, err = strconv.Atoi(v); err != nil || step < 1 {
			fail(http.StatusBadRequest, "bad step")
			return
		}
	}
	if from.Before(s.first) {
		from = s.first
	}
	if to.After(s.last) {
		to = s.last
	}
	if from.After(to) { // requested window entirely outside the served range
		fail(http.StatusBadRequest, "range does not overlap the served dates")
		return
	}
	const maxPoints = 120
	if span := to.Sub(from)/step + 1; span > maxPoints {
		fail(http.StatusBadRequest, fmt.Sprintf("too many points (max %d); raise step or narrow the range", maxPoints))
		return
	}
	return from, to, step, true
}

// SeriesPoint is one day of the per-AS series response.
type SeriesPoint struct {
	Date    string  `json:"date"`
	Users   float64 `json:"users"`
	Samples int64   `json:"samples"`
}

// SeriesResponse is the /v1/series body.
type SeriesResponse struct {
	ASN     uint32        `json:"asn"`
	Country string        `json:"cc"`
	Points  []SeriesPoint `json:"points"`
}

// handleSeries serves the per-(country, AS) daily series — the view the
// paper's footnote 2 links for Bouygues Telecom on the real site. It is
// the legacy alias of /v1/apnic/series/{asn}, parsed by the same
// seriesSelector; its response shape and error strings are pinned by
// the byte-identity tests.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	cols, cells, cc, err := seriesSelector(apnic.DatasetName, r.PathValue("asn"), q.Get("cc"))
	switch {
	case err == errNotASKey:
		http.Error(w, "want /v1/series/AS<asn>", http.StatusNotFound)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	from, to, step, ok := s.seriesRange(q, func(code int, msg string) { http.Error(w, msg, code) })
	if !ok {
		return
	}
	asn, _ := strconv.ParseUint(cells[0], 10, 32) // seriesSelector's canonical decimal
	resp := SeriesResponse{ASN: uint32(asn), Country: cc}
	err = s.seriesRows(apnic.DatasetName, dates.Range(from, to, step), cols, cells, func(d dates.Date, f *source.Frame, i int) {
		resp.Points = append(resp.Points, SeriesPoint{
			Date: d.String(), Users: f.Col("Estimated Users").Floats[i], Samples: f.Col("Samples").Ints[i],
		})
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// DateRange is the /v1/dates response body.
type DateRange struct {
	First string `json:"first"`
	Last  string `json:"last"`
}

func (s *Server) handleDates(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.dates)
}

// legacyCSV renders the APNIC frame in the native report CSV layout,
// byte-identical to the generated report's WriteCSV (the frame
// conversion is lossless). Its validator is hashed from the bytes: no
// frame codec stands behind them.
func (s *Server) legacyCSV(f *source.Frame) source.Body {
	rep, err := apnic.ReportFromFrame(f)
	if err != nil {
		return source.Body{Err: err}
	}
	var b strings.Builder
	if err := s.writeCSV(rep, &b); err != nil {
		return source.Body{Err: err}
	}
	body := []byte(b.String()) // exact-size copy: the body stays resident
	return source.Body{Bytes: body, Hash: bodyHash(body)}
}

// errBodyLimit caps how much of a non-200 response body the client reads
// into an error message; errDrainLimit caps how much more it will drain
// to keep the connection reusable before giving up and closing it.
const (
	errBodyLimit  = 1 << 10
	errDrainLimit = 64 << 10
)

// maxBodyBytes caps every body a 200 response hands the client, so a
// broken or hostile server cannot make it allocate without limit. The
// largest body the server sends is the last day's apnic JSON report,
// 361,569 bytes (seed 42, 2024-12-31); the cap sits about 90x above it.
const maxBodyBytes = 32 << 20

// readBody reads a 200 response's body, rejecting a declared length
// over maxBodyBytes before reading and failing a body without one once
// it passes the cap.
func readBody(u string, resp *http.Response) ([]byte, error) {
	if resp.ContentLength > maxBodyBytes {
		return nil, fmt.Errorf("apnicweb: GET %s: body of %d bytes exceeds the %d-byte cap", u, resp.ContentLength, maxBodyBytes)
	}
	buf, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("apnicweb: reading %s: %w", u, err)
	}
	if len(buf) > maxBodyBytes {
		return nil, fmt.Errorf("apnicweb: GET %s: body exceeds the %d-byte cap", u, maxBodyBytes)
	}
	return buf, nil
}

// Client fetches reports from a server. It retries transient failures
// (connection errors, 429, 5xx) with exponential backoff through
// obsv.RetryTransport: 4 attempts, 100ms base backoff, Retry-After
// honored, and a retry budget shared by the client's requests.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to a client with a 30s timeout. Its transport
	// is wrapped with the retrying transport on first use.
	HTTPClient *http.Client

	once sync.Once
	c    *http.Client
}

func (c *Client) http() *http.Client {
	c.once.Do(func() {
		base := c.HTTPClient
		if base == nil {
			base = &http.Client{Timeout: 30 * time.Second}
		}
		wrapped := *base // shallow copy so we never mutate the caller's client
		wrapped.Transport = &obsv.RetryTransport{Base: base.Transport}
		c.c = &wrapped
	})
	return c.c
}

// errorf reads a bounded snippet of a non-200 response body for the
// error message, then drains (bounded) so the connection can be reused.
// The old client closed the body unread, which killed keep-alive on
// every error response.
func errorf(u string, resp *http.Response) error {
	snippet, _ := io.ReadAll(io.LimitReader(resp.Body, errBodyLimit))
	io.Copy(io.Discard, io.LimitReader(resp.Body, errDrainLimit))
	msg := strings.TrimSpace(string(snippet))
	if msg == "" {
		return fmt.Errorf("apnicweb: GET %s: %s", u, resp.Status)
	}
	return fmt.Errorf("apnicweb: GET %s: %s: %s", u, resp.Status, msg)
}

// get issues one GET for the URL joined from BaseURL and elem, with an
// Accept header when accept is set. It returns the response only on 200,
// and the URL for error messages; any other status becomes an errorf
// error, which drains the body. The caller closes the returned body.
func (c *Client) get(ctx context.Context, accept string, elem ...string) (*http.Response, string, error) {
	u, err := url.JoinPath(c.BaseURL, elem...)
	if err != nil {
		return nil, u, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, u, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, u, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, u, errorf(u, resp)
	}
	return resp, u, nil
}

// Dates fetches the served date range.
func (c *Client) Dates(ctx context.Context) (first, last dates.Date, err error) {
	resp, u, err := c.get(ctx, "", "/v1/dates")
	if err != nil {
		return first, last, err
	}
	defer resp.Body.Close()
	buf, err := readBody(u, resp)
	if err != nil {
		return first, last, err
	}
	var dr DateRange
	if err := json.Unmarshal(buf, &dr); err != nil {
		return first, last, fmt.Errorf("apnicweb: decoding dates: %w", err)
	}
	if first, err = dates.Parse(dr.First); err != nil {
		return first, last, err
	}
	last, err = dates.Parse(dr.Last)
	return first, last, err
}

// Report fetches and parses one day's report.
func (c *Client) Report(ctx context.Context, d dates.Date) (*apnic.Report, error) {
	resp, u, err := c.get(ctx, "", "/v1/reports/", d.String()+".csv")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := readBody(u, resp)
	if err != nil {
		return nil, err
	}
	if err := checkETag(u, resp, func() string { return bodyHash(buf) }); err != nil {
		return nil, err
	}
	rep, err := apnic.ReadCSV(bytes.NewReader(buf))
	if err != nil {
		return nil, fmt.Errorf("apnicweb: parsing %s: %w", d, err)
	}
	return rep, nil
}

// DatasetDates fetches one dataset's served range and cadence from the
// generic /v1/{dataset}/dates route.
func (c *Client) DatasetDates(ctx context.Context, dataset string) (DatasetDates, error) {
	var dd DatasetDates
	resp, u, err := c.get(ctx, "", "/v1/", dataset, "/dates")
	if err != nil {
		return dd, err
	}
	defer resp.Body.Close()
	buf, err := readBody(u, resp)
	if err != nil {
		return dd, err
	}
	if err := json.Unmarshal(buf, &dd); err != nil {
		return dd, fmt.Errorf("apnicweb: decoding %s dates: %w", dataset, err)
	}
	return dd, nil
}

// Frame fetches and parses one dataset-day from the generic CSV route.
func (c *Client) Frame(ctx context.Context, dataset string, d dates.Date) (*source.Frame, error) {
	return c.textFrame(ctx, dataset, d, ".csv", source.ReadCSV)
}

// FrameJSON fetches and parses one dataset-day from the generic JSON
// route (the bare-date representation).
func (c *Client) FrameJSON(ctx context.Context, dataset string, d dates.Date) (*source.Frame, error) {
	return c.textFrame(ctx, dataset, d, "", source.ReadJSON)
}

func (c *Client) textFrame(ctx context.Context, dataset string, d dates.Date, suffix string, parse func(io.Reader) (*source.Frame, error)) (*source.Frame, error) {
	resp, u, err := c.get(ctx, "", "/v1/", dataset, "/reports/", d.String()+suffix)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := readBody(u, resp)
	if err != nil {
		return nil, err
	}
	f, err := parse(bytes.NewReader(buf))
	if err != nil {
		return nil, fmt.Errorf("apnicweb: parsing %s %s: %w", dataset, d, err)
	}
	return requested(u, dataset, resp, f)
}

// requested returns f if it is the requested dataset's frame and the
// content the response's ETag names. A server or proxy that answers
// with another dataset's frame, or with a body its ETag does not
// describe, is an error, not a well-formed but wrong result.
func requested(u, dataset string, resp *http.Response, f *source.Frame) (*source.Frame, error) {
	if f.Source != dataset {
		return nil, fmt.Errorf("apnicweb: GET %s: server sent a %q frame, not %q", u, f.Source, dataset)
	}
	if err := checkETag(u, resp, f.ContentHash); err != nil {
		return nil, err
	}
	return f, nil
}

// checkETag holds a 200 to its ETag: when the response carries one, the
// tag's hash part (before any "-variant" suffix) must equal hash(), the
// content hash of what the client decoded. A response without an ETag
// passes.
func checkETag(u string, resp *http.Response, hash func() string) error {
	etag := resp.Header.Get("ETag")
	if etag == "" {
		return nil
	}
	tag, _, _ := strings.Cut(strings.Trim(strings.TrimPrefix(etag, "W/"), `"`), "-")
	if want := hash(); tag != want {
		return fmt.Errorf("apnicweb: GET %s: ETag %s names other content than the body (hash %s)", u, etag, want)
	}
	return nil
}

// FrameBin fetches one dataset-day over the binary representation and
// zero-copy decodes it: the returned frame aliases the response buffer,
// so the fetch costs one body read plus a constant number of
// allocations, regardless of row count. It negotiates via the Accept
// header rather than the .bin path suffix, exercising the content-type
// route a proxying client would use.
func (c *Client) FrameBin(ctx context.Context, dataset string, d dates.Date) (*source.Frame, error) {
	return c.binaryFrame(ctx, dataset, d, binfmt.ContentType, binfmt.Decode)
}

// FrameBinz fetches one dataset-day over the compressed binary
// representation and decodes it. Like FrameBin it negotiates via the
// Accept header; unlike FrameBin the returned frame owns its memory
// (framez decode is self-contained), so the response buffer is garbage
// the moment decoding returns. The server never gzips this
// representation, so the body read is the wire transfer.
func (c *Client) FrameBinz(ctx context.Context, dataset string, d dates.Date) (*source.Frame, error) {
	return c.binaryFrame(ctx, dataset, d, framez.ContentType, framez.Decode)
}

func (c *Client) binaryFrame(ctx context.Context, dataset string, d dates.Date, contentType string, decode func([]byte) (*source.Frame, error)) (*source.Frame, error) {
	resp, u, err := c.get(ctx, contentType, "/v1/", dataset, "/reports/", d.String())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != contentType {
		return nil, fmt.Errorf("apnicweb: GET %s: server answered %q, not %q", u, ct, contentType)
	}
	buf, err := readBody(u, resp)
	if err != nil {
		return nil, err
	}
	f, err := decode(buf)
	if err != nil {
		return nil, fmt.Errorf("apnicweb: decoding %s %s: %w", dataset, d, err)
	}
	return requested(u, dataset, resp, f)
}
