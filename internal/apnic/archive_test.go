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

func TestArchiveAddAndLookup(t *testing.T) {
	a := buildArchive(t)
	if a.Len() != 5 {
		t.Fatalf("Len = %d", a.Len())
	}
	days := a.Days()
	for i := 1; i < len(days); i++ {
		if !days[i-1].Before(days[i]) {
			t.Fatal("Days not sorted")
		}
	}
	if _, ok := a.Report(dates.New(2024, 4, 3)); !ok {
		t.Fatal("missing archived day")
	}
	if _, ok := a.Report(dates.New(2020, 1, 1)); ok {
		t.Fatal("phantom day")
	}
}

func TestArchiveReplace(t *testing.T) {
	a := NewArchive()
	g := testGen()
	d := dates.New(2024, 4, 1)
	a.Add(g.Generate(d))
	a.Add(g.Generate(d))
	if a.Len() != 1 {
		t.Fatalf("replacing same day should not grow archive: %d", a.Len())
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
