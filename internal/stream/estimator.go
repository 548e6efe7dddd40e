package stream

import (
	"sort"
	"sync"

	"repro/internal/apnic"
	"repro/internal/dates"
)

// RollingEstimator maintains APNIC-style user estimates over a live
// impression stream. APNIC republishes daily, each report covering a
// 60-day moving window; the simulators model that by attributing every
// impression to its report day. The estimator therefore keeps one raw
// per-(CC, AS) count accumulator per day, retains a sliding window of
// the most recent Window days (older days evict as the stream
// advances), and assembles any retained day's report on demand through
// apnic.AssembleReport — the same code path the batch generator uses.
//
// That shared assembly is the convergence guarantee: once a day's
// events have fully drained into the estimator, Report(day) equals
// apnic.Generator.Generate(day) exactly — same floats, same ranks, same
// row order — pinned by the equality tests.
//
// All methods are safe for concurrent use; the pipeline publishes while
// the live HTTP endpoint snapshots.
type RollingEstimator struct {
	gen    *apnic.Generator
	window int

	mu      sync.RWMutex
	days    map[int]map[ccASN]int64 // day number → raw per-(cc, asn) counts
	latest  int                     // newest day number observed (valid when haveAny)
	haveAny bool
	rev     uint64 // bumped on every accepted mutation; the live ETag seam

	// One-entry report cache: the live endpoint assembles the same
	// (day, rev) snapshot once, not per request.
	cachedDay int
	cachedRev uint64
	cached    *apnic.Report
}

type ccASN struct {
	cc  string
	asn uint32
}

// NewRollingEstimator returns an estimator whose retention window and
// report assembly come from the generator's configuration (Window,
// MinSamples, ITU scaling). Configure the generator before first use.
func NewRollingEstimator(gen *apnic.Generator) *RollingEstimator {
	w := gen.Window
	if w < 1 {
		w = 1
	}
	return &RollingEstimator{gen: gen, window: w, days: map[int]map[ccASN]int64{}}
}

// Observe credits one impression to its day's accumulator. Impressions
// for days that have already slid out of the window are dropped — the
// published dataset never rewrites history either.
func (e *RollingEstimator) Observe(imp Impression) {
	e.mu.Lock()
	e.observeLocked(imp)
	e.mu.Unlock()
}

// ObserveBatch credits a whole batch under one lock acquisition.
func (e *RollingEstimator) ObserveBatch(b Batch) {
	e.mu.Lock()
	for _, imp := range b.Imps {
		e.observeLocked(imp)
	}
	e.mu.Unlock()
}

func (e *RollingEstimator) observeLocked(imp Impression) {
	dn := imp.Day.DayNumber()
	if e.haveAny && dn <= e.latest-e.window {
		return
	}
	if !e.haveAny || dn > e.latest {
		e.latest = dn
		e.haveAny = true
		// Slide the window: drop days that fell off the back.
		for day := range e.days {
			if day <= e.latest-e.window {
				delete(e.days, day)
			}
		}
	}
	m := e.days[dn]
	if m == nil {
		m = map[ccASN]int64{}
		e.days[dn] = m
	}
	m[ccASN{imp.CC, imp.ASN}] += imp.Weight
	e.rev++
}

// countsLocked returns one retained day's raw per-AS counts in (CC, ASN)
// order, or nil for a day outside the window.
func (e *RollingEstimator) countsLocked(dn int) []apnic.ASCount {
	m := e.days[dn]
	if m == nil {
		return nil
	}
	counts := make([]apnic.ASCount, 0, len(m))
	for k, n := range m {
		counts = append(counts, apnic.ASCount{CC: k.cc, ASN: k.asn, Samples: n})
	}
	sort.Slice(counts, func(i, j int) bool {
		if counts[i].CC != counts[j].CC {
			return counts[i].CC < counts[j].CC
		}
		return counts[i].ASN < counts[j].ASN
	})
	return counts
}

// Report assembles one retained day's rolling report. For a day with no
// retained counts (outside the window, or never streamed) the report is
// empty, not nil.
func (e *RollingEstimator) Report(d dates.Date) *apnic.Report {
	dn := d.DayNumber()
	e.mu.RLock()
	rep, counts, rev, hit := e.reportStateLocked(dn)
	e.mu.RUnlock()
	if hit {
		return rep
	}
	return e.assemble(d, dn, counts, rev)
}

// reportStateLocked returns the cached report for day dn, or the counts
// snapshot (taken atomically with rev) an assembly needs.
func (e *RollingEstimator) reportStateLocked(dn int) (rep *apnic.Report, counts []apnic.ASCount, rev uint64, hit bool) {
	rev = e.rev
	if e.cached != nil && e.cachedDay == dn && e.cachedRev == rev {
		return e.cached, nil, rev, true
	}
	return nil, e.countsLocked(dn), rev, false
}

// assemble renders a report outside the estimator lock — the
// generator's memo caches are concurrency-safe, and publishers keep
// observing while a slow snapshot renders — then caches it if nothing
// changed meanwhile.
func (e *RollingEstimator) assemble(d dates.Date, dn int, counts []apnic.ASCount, rev uint64) *apnic.Report {
	rep := e.gen.AssembleReport(d, counts)
	e.mu.Lock()
	if e.rev == rev {
		e.cachedDay, e.cachedRev, e.cached = dn, rev, rep
	}
	e.mu.Unlock()
	return rep
}

// Snapshot returns the newest rolling day with its report and a
// revision that changes whenever the estimate changes — the seam the
// live HTTP endpoint serves (and validates conditional requests)
// through. The report is assembled from the same instant as rev, so an
// ETag minted from rev always names exactly these bytes. ok is false
// before any impression has arrived.
func (e *RollingEstimator) Snapshot() (d dates.Date, rev uint64, rep *apnic.Report, ok bool) {
	e.mu.RLock()
	if !e.haveAny {
		e.mu.RUnlock()
		return d, 0, nil, false
	}
	dn := e.latest
	rep, counts, rev, hit := e.reportStateLocked(dn)
	e.mu.RUnlock()
	d = dates.FromDayNumber(dn)
	if !hit {
		rep = e.assemble(d, dn, counts, rev)
	}
	return d, rev, rep, true
}

// Window returns the retention window in days.
func (e *RollingEstimator) Window() int { return e.window }

// DaysHeld returns how many day accumulators are currently retained.
func (e *RollingEstimator) DaysHeld() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.days)
}
