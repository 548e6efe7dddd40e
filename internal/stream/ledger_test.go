package stream

import (
	"context"
	"testing"

	"repro/internal/apnic"
	"repro/internal/cdnlog"
	"repro/internal/dates"
	"repro/internal/itu"
	"repro/internal/world"
)

// TestCDNLogLedgerPinned drains the record-level pipeline that
// `go run ./cmd/logpipe -mode stream -stream-source cdnlog -country FR
// -days 1 -per-org 50 -verify` runs — seed-42 world and sampler, FR on
// 2024-04-21, 50 records per org, bot threshold 50 — and pins its stage
// ledger. A moved count means the sampler, the attribution stage or the
// batcher changed what it does with the same records.
func TestCDNLogLedgerPinned(t *testing.T) {
	const seed = 42
	w := world.MustBuild(world.Config{Seed: seed})
	est := NewRollingEstimator(apnic.New(w, itu.New(w, seed), seed))
	p, err := New(Config{
		Source: &SamplerSource{
			Sampler:   cdnlog.NewSampler(w, seed),
			Countries: []string{"FR"},
			From:      dates.New(2024, 4, 21),
			Days:      1,
			PerOrg:    50,
		},
		Enrich:    &CDNEnricher{DB: w.RoutingDB(), Registry: w.Registry, BotThreshold: 50},
		Publisher: &EstimatorSink{Est: est},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := Stats{Emitted: 1900, Accepted: 1900, Filtered: 205, Batches: 4, Published: 1695, PublishFailed: 0}
	if got := p.Stats(); got != want {
		t.Errorf("cdnlog stream ledger = %+v, want %+v", got, want)
	}
}
