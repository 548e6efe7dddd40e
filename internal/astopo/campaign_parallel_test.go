package astopo

import (
	"testing"

	"repro/internal/dates"
)

// TestCampaignSerialVsParallel runs the same campaign at several
// parallelism settings and requires byte-identical results: same traces,
// same lost hops, same weight map bit for bit. This is the contract the
// partial-merge design guarantees by construction.
func TestCampaignSerialVsParallel(t *testing.T) {
	g := testGraph(t)
	d := dates.New(2023, 7, 20)

	run := func(parallelism int) *Popularity {
		c := NewCampaign(testW, g, 11, 16)
		c.parallelism = parallelism
		return c.Run(d, 60)
	}

	base := run(1)
	if base.Traces == 0 {
		t.Fatal("serial campaign completed no traces")
	}
	for _, par := range []int{2, 4, 8, 0} { // 0 = GOMAXPROCS
		got := run(par)
		if got.Traces != base.Traces || got.LostHops != base.LostHops {
			t.Fatalf("parallelism %d: (%d traces, %d lost) vs serial (%d, %d)",
				par, got.Traces, got.LostHops, base.Traces, base.LostHops)
		}
		if len(got.Weight) != len(base.Weight) {
			t.Fatalf("parallelism %d: %d weighted orgs vs serial %d", par, len(got.Weight), len(base.Weight))
		}
		for id, w := range base.Weight {
			if got.Weight[id] != w {
				t.Fatalf("parallelism %d: weight[%s] = %v, serial %v", par, id, got.Weight[id], w)
			}
		}
	}
}

// TestCampaignPathMemo checks that repeat Runs share the memoized path
// trees instead of re-running the valley-free BFS per day.
func TestCampaignPathMemo(t *testing.T) {
	g := testGraph(t)
	c := NewCampaign(testW, g, 11, 12)
	c.Run(dates.New(2023, 7, 20), 10)
	if n := c.paths.Len(); n != len(c.Vantages) {
		t.Fatalf("path memo holds %d vantages, want %d", n, len(c.Vantages))
	}
	c.Run(dates.New(2023, 7, 21), 10)
	if n := c.paths.Len(); n != len(c.Vantages) {
		t.Fatalf("second day grew the path memo to %d, want %d", n, len(c.Vantages))
	}
}

// TestCountrySharesDeterministic guards the sorted-order normalization:
// repeated projections of one popularity must be bit-identical.
func TestCountrySharesDeterministic(t *testing.T) {
	g := testGraph(t)
	pop := NewCampaign(testW, g, 11, 16).Run(dates.New(2023, 7, 20), 80)
	first := pop.CountryShares(testW.Registry, "DE")
	for i := 0; i < 5; i++ {
		again := pop.CountryShares(testW.Registry, "DE")
		if len(again) != len(first) {
			t.Fatal("share set size changed between projections")
		}
		for id, v := range first {
			if again[id] != v {
				t.Fatalf("projection %d: shares[%s] = %v, first %v", i, id, again[id], v)
			}
		}
	}
}

// BenchmarkCampaignRun measures a full one-day campaign over a fresh
// graph, the shape ExtProxies pays once per lab.
func BenchmarkCampaignRun(b *testing.B) {
	c := NewCampaign(testW, BuildGraph(testW, 11), 11, 24)
	d := dates.New(2023, 7, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(d, 150)
	}
}
