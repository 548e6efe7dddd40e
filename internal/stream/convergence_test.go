package stream

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/apnic"
	"repro/internal/dates"
	"repro/internal/itu"
	"repro/internal/world"
)

var (
	worldOnce sync.Once
	testW     *world.World
)

func testWorld() *world.World {
	worldOnce.Do(func() { testW = world.MustBuild(world.Config{Seed: 11}) })
	return testW
}

func newTestGen() *apnic.Generator {
	w := testWorld()
	return apnic.New(w, itu.New(w, 11), 11)
}

// reportsEqual demands exact equality: same floats, same ranks, same
// row order — the convergence contract.
func reportsEqual(t *testing.T, got, want *apnic.Report) {
	t.Helper()
	if got.Date != want.Date || got.Window != want.Window {
		t.Fatalf("header mismatch: got (%s, %d), want (%s, %d)", got.Date, got.Window, want.Date, want.Window)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("row count mismatch: got %d, want %d", len(got.Rows), len(want.Rows))
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		for i := range got.Rows {
			if got.Rows[i] != want.Rows[i] {
				t.Fatalf("row %d mismatch:\n got  %+v\n want %+v", i, got.Rows[i], want.Rows[i])
			}
		}
		t.Fatal("rows differ")
	}
}

// TestGenerateEqualsAssembledCounts pins the refactor under the
// streaming work: Generate must be exactly DayCounts + AssembleReport.
func TestGenerateEqualsAssembledCounts(t *testing.T) {
	gen := newTestGen()
	d := dates.MustParse("2024-04-21")
	reportsEqual(t, gen.AssembleReport(d, gen.DayCounts(d)), gen.Generate(d))
}

// TestStreamConvergence runs the full pipeline — count-replay source,
// admission edge, batcher, estimator sink — over three simulated days
// and requires every drained day's rolling report to equal the batch
// generator's, exactly.
func TestStreamConvergence(t *testing.T) {
	gen := newTestGen()
	est := NewRollingEstimator(gen)
	from := dates.MustParse("2024-04-20")
	const days = 3

	p, err := New(Config{
		Source:    &CountSource{Gen: gen, From: from, Days: days, Chunk: 37},
		Publisher: &EstimatorSink{Est: est},
		MaxBatch:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, p.Stats())

	st := p.Stats()
	if st.Emitted != st.Accepted {
		t.Fatalf("block policy lost events: %+v", st)
	}
	if st.Accepted != st.Published || st.Filtered != 0 || st.PublishFailed != 0 {
		t.Fatalf("ledger does not reconcile: %+v", st)
	}

	for i := 0; i < days; i++ {
		d := from.AddDays(i)
		reportsEqual(t, est.Report(d), gen.Generate(d))
	}

	// The live snapshot serves the newest day.
	d, rev, rep, ok := est.Snapshot()
	if !ok || d != from.AddDays(days-1) {
		t.Fatalf("Snapshot day = %s ok=%v, want %s", d, ok, from.AddDays(days-1))
	}
	if rev == 0 || len(rep.Rows) == 0 {
		t.Fatalf("empty snapshot: rev=%d rows=%d", rev, len(rep.Rows))
	}
	reportsEqual(t, rep, gen.Generate(d))
}

// TestStreamConvergenceUnchunked covers the one-event-per-AS replay
// shape (Chunk 0) and out-of-order delivery across a wider batcher.
func TestStreamConvergenceUnchunked(t *testing.T) {
	gen := newTestGen()
	est := NewRollingEstimator(gen)
	d := dates.MustParse("2024-02-29")

	p, err := New(Config{
		Source:    &CountSource{Gen: gen, From: d, Days: 1},
		Publisher: &EstimatorSink{Est: est},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, p.Stats())
	reportsEqual(t, est.Report(d), gen.Generate(d))
}

// TestRollingWindowEviction holds the sliding-window semantics: only
// the newest Window days stay resident, evicted days report empty, and
// late impressions for evicted days are dropped without a revision.
func TestRollingWindowEviction(t *testing.T) {
	gen := newTestGen()
	gen.Window = 2
	est := NewRollingEstimator(gen)
	from := dates.MustParse("2024-03-01")
	const days = 4

	p, err := New(Config{
		Source:    &CountSource{Gen: gen, From: from, Days: days, Chunk: 1000},
		Publisher: &EstimatorSink{Est: est},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, p.Stats())

	if got := est.DaysHeld(); got != 2 {
		t.Fatalf("DaysHeld = %d, want 2", got)
	}
	// The retained days still converge exactly.
	for i := days - 2; i < days; i++ {
		d := from.AddDays(i)
		reportsEqual(t, est.Report(d), gen.Generate(d))
	}
	// An evicted day assembles empty.
	if rows := est.Report(from).Rows; len(rows) != 0 {
		t.Fatalf("evicted day has %d rows, want 0", len(rows))
	}
	// A late impression for an evicted day is dropped: no revision, no
	// resident day, no change to any report.
	before := est.Report(from.AddDays(days - 1))
	_, revBefore, _, _ := est.Snapshot()
	est.Observe(Impression{Day: from, CC: "FR", ASN: 64500, Weight: 5})
	if _, rev, _, _ := est.Snapshot(); rev != revBefore {
		t.Fatalf("late impression bumped the revision %d → %d", revBefore, rev)
	}
	if got := est.DaysHeld(); got != 2 {
		t.Fatalf("late impression left %d days resident, want 2", got)
	}
	if rows := est.Report(from).Rows; len(rows) != 0 {
		t.Fatalf("late impression resurrected the evicted day with %d rows", len(rows))
	}
	reportsEqual(t, est.Report(from.AddDays(days-1)), before)
}

// TestEstimatorReportCache verifies the one-entry report cache returns
// the identical assembled report until the estimate changes.
func TestEstimatorReportCache(t *testing.T) {
	gen := newTestGen()
	est := NewRollingEstimator(gen)
	d := dates.MustParse("2024-04-21")
	for _, c := range gen.DayCounts(d) {
		est.Observe(Impression{Day: d, CC: c.CC, ASN: c.ASN, Weight: c.Samples})
	}
	r1 := est.Report(d)
	r2 := est.Report(d)
	if r1 != r2 {
		t.Fatal("report cache missed on an unchanged estimate")
	}
	est.Observe(Impression{Day: d, CC: "FR", ASN: 1, Weight: 1})
	if r3 := est.Report(d); r3 == r1 {
		t.Fatal("report cache served a stale report after a mutation")
	}
}

// TestEstimatorCounts checks the raw per-day accumulators: weights for
// one (CC, ASN) add up, rows come back in (CC, ASN) order, and a day
// with nothing retained has no counts.
func TestEstimatorCounts(t *testing.T) {
	gen := newTestGen()
	est := NewRollingEstimator(gen)
	if est.Window() != gen.Window {
		t.Fatalf("Window = %d, want the generator's %d", est.Window(), gen.Window)
	}
	d := dates.MustParse("2024-04-21")
	for _, imp := range []Impression{
		{Day: d, CC: "FR", ASN: 64501, Weight: 2},
		{Day: d, CC: "DE", ASN: 64502, Weight: 1},
		{Day: d, CC: "FR", ASN: 64500, Weight: 4},
		{Day: d, CC: "FR", ASN: 64501, Weight: 3},
	} {
		est.Observe(imp)
	}
	want := []apnic.ASCount{
		{CC: "DE", ASN: 64502, Samples: 1},
		{CC: "FR", ASN: 64500, Samples: 4},
		{CC: "FR", ASN: 64501, Samples: 5},
	}
	if got := est.Counts(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("Counts = %+v, want %+v", got, want)
	}
	if got := est.Counts(d.AddDays(-1)); got != nil {
		t.Fatalf("Counts for an unobserved day = %+v, want nil", got)
	}
}
