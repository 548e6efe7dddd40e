package apnicweb

import (
	"strconv"
	"testing"

	"repro/internal/apnic"
	"repro/internal/dates"
	"repro/internal/source"
)

// The series endpoint used to find each day's (ASN, CC) row with a
// linear scan over all rows — O(rows) comparisons per day per request.
// These benchmarks pit that scan against the row index the day's
// artifact builds once while resident. On the seed world (~10k rows/day)
// the index is ~3 orders of magnitude faster per lookup, which is the
// difference between a series request costing 120 map probes and 1.2M
// row comparisons.

var benchSink apnic.Row

func benchTarget(rep *apnic.Report) apnic.Row {
	return rep.Rows[len(rep.Rows)/2] // median-position row: typical scan cost
}

func BenchmarkSeriesLookupLinearScan(b *testing.B) {
	rep := testGen.Generate(dates.New(2024, 4, 10))
	key := benchTarget(rep)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, row := range rep.Rows {
			if row.ASN == key.ASN && row.CC == key.CC {
				benchSink = row
				break
			}
		}
	}
}

func BenchmarkSeriesLookupIndexed(b *testing.B) {
	srv := newTestServer(0)
	d := dates.New(2024, 4, 10)
	a, err := srv.Registry().Artifact(apnic.DatasetName, d)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := apnic.ReportFromFrame(a.Frame)
	if err != nil {
		b.Fatal(err)
	}
	target := benchTarget(rep)
	key := source.RowKey(strconv.FormatUint(uint64(target.ASN), 10), target.CC)
	a.RowIndex(apnicSeriesCols...) // build outside the timed region, as one request amortizes it
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx, ok := a.RowIndex(apnicSeriesCols...)[key]; ok {
			benchSink = rep.Rows[idx]
		}
	}
}
