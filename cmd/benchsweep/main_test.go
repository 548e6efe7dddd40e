package main

import (
	"strings"
	"testing"
)

// TestCheckCodecs trips each codec gate just past its threshold and
// passes a matrix sitting exactly on every threshold.
func TestCheckCodecs(t *testing.T) {
	// apnic: csv round trip 1000 B in 1000 ns; bin 1200 B in 400 ns is
	// exactly 3x its bytes/sec, and 1200/1000 is exactly the size ratio.
	ok := func() []CodecTiming {
		return []CodecTiming{
			{Source: "apnic", Codec: "csv", Bytes: 1000, EncodeNSOp: 500, DecodeNSOp: 500},
			{Source: "apnic", Codec: "bin", Bytes: 1200, EncodeNSOp: 200, DecodeNSOp: 200, DecodeAllocsPerOp: 32},
			{Source: "apnic", Codec: "binz", Bytes: 1000, EncodeNSOp: 900, DecodeNSOp: 900, DecodeAllocsPerOp: 192},
		}
	}
	if err := checkCodecs(ok()); err != nil {
		t.Fatalf("matrix on every threshold: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(m []CodecTiming)
		want   string
	}{
		{"bin decode allocs", func(m []CodecTiming) { m[1].DecodeAllocsPerOp = 32.5 }, "binary decode alloc budget"},
		{"binz decode allocs", func(m []CodecTiming) { m[2].DecodeAllocsPerOp = 192.5 }, "compressed binary decode alloc budget"},
		{"binz ratio", func(m []CodecTiming) { m[2].Bytes = 1001 }, "binz compression gate"},
		{"bin speedup", func(m []CodecTiming) { m[1].DecodeNSOp = 201 }, "binary speedup gate"},
		{"missing binz row", func(m []CodecTiming) { m[2].Codec = "json" }, "missing bin/binz row"},
	} {
		m := ok()
		tc.mutate(m)
		if err := checkCodecs(m); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
