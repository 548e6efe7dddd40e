package obsv

import (
	"log"
	"net/http"
	"sync"
	"time"
)

// HTTPMetrics is an http.Handler middleware that records, per route:
//
//	http_requests_total{route=...,class=...}   counter per status class
//	http_request_seconds{route=...}            latency histogram
//	http_response_bytes_total{route=...}       bytes written
//
// and, when Log is non-nil, emits one structured (logfmt-style) request
// log line per request. Wrap measures every request; the route label is
// the one Labeled fixed on the handler that served it, when the request
// reached one inside Wrap, and "other" otherwise (a mux's own 404 or
// 405, say), so client-chosen paths never become series.
//
// Metric pointers are resolved once per (route, class) and memoized, so
// steady-state requests do a lock-free counter add and one histogram
// observe — no map-string building on the hot path.
type HTTPMetrics struct {
	Registry *Registry
	Log      *log.Logger      // nil disables request logging
	now      func() time.Time // test hook; nil: time.Now

	mu     sync.RWMutex
	series map[routeClass]*routeSeries
}

type routeClass struct {
	route string
	class string
}

type routeSeries struct {
	requests *Counter
	latency  *Histogram
	bytes    *Counter
}

// statusClass maps an HTTP status code to its Prometheus-style class
// label ("2xx", "4xx", ...).
func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	case code >= 200:
		return "2xx"
	default:
		return "1xx"
	}
}

func (m *HTTPMetrics) lookup(route, class string) *routeSeries {
	key := routeClass{route, class}
	m.mu.RLock()
	s := m.series[key]
	m.mu.RUnlock()
	if s != nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.series == nil {
		m.series = map[routeClass]*routeSeries{}
	}
	if s = m.series[key]; s == nil {
		s = &routeSeries{
			requests: m.Registry.Counter(Label("http_requests_total", "route", route, "class", class)),
			latency:  m.Registry.Histogram(Label("http_request_seconds", "route", route)),
			bytes:    m.Registry.Counter(Label("http_response_bytes_total", "route", route)),
		}
		m.series[key] = s
	}
	return s
}

// statusWriter captures the status code and byte count of a response.
// Handlers that never call WriteHeader implicitly send 200.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	route  string // set by a Labeled handler
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Labeled returns h with its requests counted under route by the
// HTTPMetrics.Wrap that serves them. The label is fixed here, where the
// route is declared, so nothing parses the request again to find it.
func Labeled(route string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sw, ok := w.(*statusWriter); ok {
			sw.route = route
		}
		h.ServeHTTP(w, r)
	})
}

// Wrap instruments next with metrics and request logging.
func (m *HTTPMetrics) Wrap(next http.Handler) http.Handler {
	now := m.now
	if now == nil {
		now = time.Now
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := now().Sub(start)

		route := sw.route
		if route == "" {
			route = "other"
		}
		s := m.lookup(route, statusClass(sw.status))
		s.requests.Inc()
		s.latency.Observe(elapsed.Seconds())
		s.bytes.Add(sw.bytes)

		if m.Log != nil {
			m.Log.Printf("http method=%s route=%s path=%s status=%d bytes=%d dur=%s",
				r.Method, route, r.URL.Path, sw.status, sw.bytes, elapsed.Round(time.Microsecond))
		}
	})
}
