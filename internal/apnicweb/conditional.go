package apnicweb

// Conditional GETs and response compression for the report routes.
//
// Every dataset-day is a pure function of (seed, date): once generated
// its bytes never change, which makes the report routes ideal for strong
// validators. The server derives an ETag from the frame's content hash
// (internal/source's ContentHash — computable from the in-memory frame
// without rendering a body, and memoized on the day's registry
// artifact), suffixed by the representation variant ("csv", "csv.gz",
// "json", ...) so a strong tag never aliases two different byte streams.
// The legacy CSV's tag is hashed from its body instead (bodyHash).
// If-None-Match is evaluated with the RFC 9110 weak comparison (W/
// prefixes ignored, "*" matches anything), so a 304 costs one artifact
// lookup and zero rendering.
//
// Compression is negotiated from Accept-Encoding (q-values honored).
// A gzip body is rendered once per representation into the day's
// artifact, under its ETag variant, and evicted with the day. It is
// always compressed from the identity body, never from a live client
// stream, so a client that disconnects mid-response can never poison it
// with a truncated body. Identity CSV/JSON bodies are held weakly
// instead (see serveReport in apnicweb.go): their memory is the
// collector's to reclaim, and a dropped body renders again.

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
)

// etagMatch reports whether any entity tag in an If-None-Match header
// value matches etag, using the weak comparison If-None-Match requires
// (RFC 9110 §13.1.2): W/ prefixes are ignored on both sides and "*"
// matches any current representation. A missing header never matches.
func etagMatch(ifNoneMatch, etag string) bool {
	ifNoneMatch = strings.TrimSpace(ifNoneMatch)
	if ifNoneMatch == "" {
		return false
	}
	if ifNoneMatch == "*" {
		return true
	}
	want := strings.TrimPrefix(etag, "W/")
	// Our tags are quoted hex with no embedded commas, so a comma split is
	// an exact field separation for any list a client can echo back.
	for rest := ifNoneMatch; rest != ""; {
		var tag string
		tag, rest, _ = strings.Cut(rest, ",")
		if strings.TrimPrefix(strings.TrimSpace(tag), "W/") == want {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the request's Accept-Encoding header
// permits a gzip-coded response. A member naming gzip (or x-gzip)
// decides on its own, wherever it appears in the list: per RFC 9110
// §12.5.3 "*" only covers codings the header does not name, so
// "*, gzip;q=0" refuses gzip. Without a named member, a "*" whose
// q-value is not zero accepts it. An absent header means identity only
// — proxies that strip Accept-Encoding must get uncompressed bytes.
func acceptsGzip(acceptEncoding string) bool {
	wildcard := false
	for rest := acceptEncoding; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, ",")
		coding, params, _ := strings.Cut(part, ";")
		q, ok := qValue(params)
		refused := ok && q == 0
		switch coding = strings.TrimSpace(coding); {
		case strings.EqualFold(coding, "gzip"), strings.EqualFold(coding, "x-gzip"):
			return !refused
		case coding == "*":
			wildcard = wildcard || !refused
		}
	}
	return wildcard
}

// acceptsMediaType reports whether an Accept header asks for the media
// type want: a member naming it whose q-value is not zero. The wildcard
// types text routes default to (*/*, application/*) deliberately do NOT
// select it, so the frame media types are opt-in: a browser keeps
// getting JSON, and only a client that names a binary type gets one.
func acceptsMediaType(accept, want string) bool {
	for rest := accept; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, ",")
		mediaType, params, _ := strings.Cut(part, ";")
		if !strings.EqualFold(strings.TrimSpace(mediaType), want) {
			continue
		}
		if q, ok := qValue(params); ok && q == 0 {
			return false // explicit refusal
		}
		return true
	}
	return false
}

// qValue parses the q parameter out of an Accept-Encoding member's
// parameter string (";q=0.5"). Returns ok=false when no q is present
// (which HTTP treats as q=1).
//
// These header parsers walk their lists with strings.Cut: every report
// request runs them, and strings.Split would allocate a slice per list.
func qValue(params string) (float64, bool) {
	for rest := params; rest != ""; {
		var p string
		p, rest, _ = strings.Cut(rest, ";")
		k, v, found := strings.Cut(strings.TrimSpace(p), "=")
		if !found || !strings.EqualFold(strings.TrimSpace(k), "q") {
			continue
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil || q < 0 {
			return 1, true // malformed q: keep the coding acceptable
		}
		return q, true
	}
	return 0, false
}

// bodyHash returns the content hash of an already-rendered body, in the
// same hex shape as source.Frame.ContentHash, for routes (the legacy
// APNIC CSV) whose canonical artifact is the byte body rather than a
// frame.
func bodyHash(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:16])
}
