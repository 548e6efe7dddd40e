package apnic

import (
	"testing"

	"repro/internal/dates"
)

func archiveDays() []dates.Date {
	return dates.Range(dates.New(2024, 4, 1), dates.New(2024, 4, 5), 1)
}

func buildArchive(t *testing.T) *Archive {
	t.Helper()
	g := testGen()
	a := NewArchive()
	for _, d := range archiveDays() {
		a.Add(g.Generate(d))
	}
	return a
}

// TestArchiveAddOutOfOrder adds days newest first: the archive keeps
// them in date order, so a series still comes out chronological.
func TestArchiveAddOutOfOrder(t *testing.T) {
	g := testGen()
	a := NewArchive()
	days := archiveDays()
	for i := len(days) - 1; i >= 0; i-- {
		a.Add(g.Generate(days[i]))
	}
	series := a.Series("FR", a.ASNsIn("FR")[0])
	if len(series) != len(days) {
		t.Fatalf("top AS present on %d of %d days", len(series), len(days))
	}
	for i, p := range series {
		if p.Date != days[i] {
			t.Fatalf("series point %d is %s, want %s", i, p.Date, days[i])
		}
	}
}

func TestArchiveReplace(t *testing.T) {
	a := NewArchive()
	g := testGen()
	d := dates.New(2024, 4, 1)
	a.Add(g.Generate(d))
	a.Add(g.Generate(d))
	if n := len(a.Series("FR", a.ASNsIn("FR")[0])); n != 1 {
		t.Fatalf("replacing same day should not grow archive: %d points", n)
	}
}

func TestArchiveSeries(t *testing.T) {
	a := buildArchive(t)
	asns := a.ASNsIn("FR")
	if len(asns) < 3 {
		t.Fatalf("only %d French ASNs", len(asns))
	}
	series := a.Series("FR", asns[0])
	if len(series) != 5 {
		t.Fatalf("top AS present on %d of 5 days", len(series))
	}
	for i := 1; i < len(series); i++ {
		if !series[i-1].Date.Before(series[i].Date) {
			t.Fatal("series out of order")
		}
	}
	for _, p := range series {
		if p.Users <= 0 || p.Samples <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
	if got := a.Series("FR", 4_000_000_000); len(got) != 0 {
		t.Fatal("unknown ASN should give empty series")
	}
}
