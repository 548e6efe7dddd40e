package cdnlog

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/dates"
	"repro/internal/world"
)

// TestWriteDayGolden pins the sampler's log bytes: any change to the rng
// draw order, the User-Agent grammar or the line format moves the hash.
// The countries, day and per-org count are the perfbench ingest replay's
// first day.
func TestWriteDayGolden(t *testing.T) {
	const (
		wantRecords = 50_000
		wantSHA256  = "d101ff3b18fcd11040acd9efa754014b94c719b27ff00265dfa8b985b2976298"
	)
	w := world.MustBuild(world.Config{Seed: 42})
	s := NewSampler(w, 1)
	d := dates.MustParse("2024-04-21")
	h := sha256.New()
	var records int64
	for _, cc := range []string{"FR", "DE", "US", "BR", "JP", "IN"} {
		n, err := s.WriteDay(h, cc, d, 200)
		if err != nil {
			t.Fatal(err)
		}
		records += n
	}
	if got := hex.EncodeToString(h.Sum(nil)); records != wantRecords || got != wantSHA256 {
		t.Fatalf("WriteDay: %d records, sha256 %s; want %d records, sha256 %s", records, got, wantRecords, wantSHA256)
	}
}

// TestEachDayRecordAllocs holds the iterator's allocation budget: a pass
// allocates per (country, org) pair (the candidate prefix list and its
// sort) plus one User-Agent string per human record, and nothing else
// per record — no per-pair record slice sized by perOrg.
func TestEachDayRecordAllocs(t *testing.T) {
	const perOrg = 400
	s := NewSampler(testW, 5)
	d := dates.MustParse("2024-04-21")
	pairs := len(testW.Market("FR").ActiveEntries(d))
	var records, humans int
	pass := func() {
		records, humans = 0, 0
		s.EachDayRecord("FR", d, perOrg, func(rec Record) bool {
			records++
			if rec.BotScore >= 50 {
				humans++
			}
			return true
		})
	}
	pass() // warm the per-year active-entry cache
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(1, pass)
	runtime.ReadMemStats(&after)
	if records != pairs*perOrg {
		t.Fatalf("pass yielded %d records, want %d pairs x %d", records, pairs, perOrg)
	}
	const perPair = 8
	if budget := float64(humans + perPair*pairs); allocs > budget {
		t.Errorf("pass made %v allocations; budget %d human agents + %d per pair x %d pairs = %v",
			allocs, humans, perPair, pairs, budget)
	}
	// AllocsPerRun ran the pass twice (a warm-up and the counted run).
	bytesPerPass := (after.TotalAlloc - before.TotalAlloc) / 2
	if budget := uint64(humans*192 + 4096*pairs); bytesPerPass > budget {
		t.Errorf("pass allocated %d bytes; budget %d human agents x 192 + 4096 per pair x %d pairs = %d",
			bytesPerPass, humans, pairs, budget)
	}
	t.Logf("pairs=%d humans=%d allocs=%v bytes=%d", pairs, humans, allocs, bytesPerPass)
}

// TestEachDayRecordStops checks that fn returning false ends the pass on
// that record, across the pair boundary too.
func TestEachDayRecordStops(t *testing.T) {
	s := NewSampler(testW, 5)
	d := dates.MustParse("2024-04-21")
	for _, stopAt := range []int{1, 3, 4, 7} {
		n := 0
		s.EachDayRecord("FR", d, 3, func(Record) bool {
			n++
			return n < stopAt
		})
		if n != stopAt {
			t.Errorf("stop at record %d: fn ran %d times", stopAt, n)
		}
	}
}
