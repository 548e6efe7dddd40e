// Command logpipe demonstrates the raw CDN request-log pipeline: it can
// emit synthetic log lines for a country and day (mode=sample), read
// log lines from stdin and aggregate them to per-(country, org) stats
// the way the paper's CDN pipeline does (mode=aggregate), or run the
// continuous streaming pipeline end to end and report the rolling
// APNIC-style estimates it converges to (mode=stream).
//
// Round trip:
//
//	logpipe -mode sample -country FR -per-org 500 | logpipe -mode aggregate
//
// Streaming, with the convergence check against the batch generator:
//
//	logpipe -mode stream -country FR -days 1 -verify
//	logpipe -mode stream -stream-source cdnlog -country FR -days 1 -verify
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/apnic"
	"repro/internal/cdnlog"
	"repro/internal/dates"
	"repro/internal/geo"
	"repro/internal/itu"
	"repro/internal/report"
	"repro/internal/stream"
	"repro/internal/world"
)

func main() {
	mode := flag.String("mode", "sample", "sample | aggregate | stream")
	seed := flag.Uint64("seed", 42, "world seed")
	country := flag.String("country", "FR", "country to sample / display")
	dateStr := flag.String("date", "2024-04-21", "log day (stream mode: first day)")
	perOrg := flag.Int("per-org", 200, "records per organization (sample/cdnlog-stream modes)")
	botThreshold := flag.Int("bot-threshold", 50, "bot score filter (aggregate/stream modes)")
	days := flag.Int("days", 1, "days to stream (stream mode)")
	streamSrc := flag.String("stream-source", "apnic", "stream mode source: apnic (count replay) | cdnlog (record-level)")
	verify := flag.Bool("verify", false, "stream mode: check convergence against the batch pipeline; exit 1 on mismatch")
	flag.Parse()

	d, err := checkFlags(*mode, *streamSrc, *country, *dateStr, *days, *perOrg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "logpipe:", err)
		os.Exit(2)
	}
	w := world.MustBuild(world.Config{Seed: *seed})

	switch *mode {
	case "sample":
		s := cdnlog.NewSampler(w, *seed)
		n, err := s.WriteDay(os.Stdout, *country, d, *perOrg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "logpipe: wrote %d records for %s on %s\n", n, *country, d)

	case "aggregate":
		agg := cdnlog.NewAggregator(w.RoutingDB(), w.Registry, *botThreshold)
		parsed, err := agg.ReadFrom(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "logpipe: parse warnings:", err)
		}
		stats := agg.Stats()
		keys := make([]string, 0, len(stats))
		byKey := map[string]*cdnlog.PairStats{}
		for k, st := range stats {
			id := k.Country + "/" + k.Org
			keys = append(keys, id)
			byKey[id] = st
		}
		sort.Slice(keys, func(i, j int) bool {
			return byKey[keys[i]].Requests > byKey[keys[j]].Requests
		})
		var rows [][]string
		for _, id := range keys {
			st := byKey[id]
			rows = append(rows, []string{
				id,
				report.Count(st.Requests),
				report.Count(st.Bots),
				fmt.Sprintf("%d", st.UserAgents()),
				report.Count(st.Bytes),
			})
		}
		fmt.Printf("parsed %d records (%d unrouted, %d unassigned)\n\n",
			parsed, agg.Unrouted(), agg.Unassigned())
		fmt.Println(report.Table([]string{"country/org", "human req", "bot req", "distinct UAs", "bytes"}, rows))

	case "stream":
		runStream(w, d, *seed, *country, *days, *perOrg, *botThreshold, *streamSrc, *verify)
	}
}

// checkFlags validates the command line before any world is built and
// returns the parsed -date. It rejects every value that would make a run
// check nothing: an empty stream window, no records per organization, or
// a country without a market (the sampler would emit no records, and
// -verify would compare two empty ledgers).
func checkFlags(mode, streamSrc, country, date string, days, perOrg int) (dates.Date, error) {
	switch mode {
	case "sample", "aggregate", "stream":
	default:
		return dates.Date{}, fmt.Errorf("unknown mode %q (want sample, aggregate or stream)", mode)
	}
	if streamSrc != "apnic" && streamSrc != "cdnlog" {
		return dates.Date{}, fmt.Errorf("unknown stream source %q (want apnic or cdnlog)", streamSrc)
	}
	if _, ok := geo.ByCode(country); !ok {
		return dates.Date{}, fmt.Errorf("-country: unknown country %q", country)
	}
	if days < 1 {
		return dates.Date{}, fmt.Errorf("-days must be at least 1, got %d", days)
	}
	if perOrg < 1 {
		return dates.Date{}, fmt.Errorf("-per-org must be at least 1, got %d", perOrg)
	}
	d, err := dates.Parse(date)
	if err != nil {
		return dates.Date{}, fmt.Errorf("-date: %w", err)
	}
	return d, nil
}

// runStream drives the continuous pipeline end to end: source →
// enrich → batch → rolling estimator, then prints the stage ledger and
// the country's rolling estimate. With -verify it re-runs the batch
// pipeline over the same window and demands agreement.
func runStream(w *world.World, from dates.Date, seed uint64, country string, days, perOrg, botThreshold int, srcName string, verify bool) {
	gen := apnic.New(w, itu.New(w, seed), seed)
	est := stream.NewRollingEstimator(gen)

	var src stream.Source
	var enr stream.Enricher
	switch srcName {
	case "apnic":
		// Replay the batch generator's own window counts: the convergence
		// contract says the drained estimate equals the batch report
		// exactly, float for float.
		src = &stream.CountSource{Gen: gen, From: from, Days: days, Chunk: 1000}
	case "cdnlog":
		// Record-level replay through the full attribution stage.
		src = &stream.SamplerSource{
			Sampler:   cdnlog.NewSampler(w, seed),
			Countries: []string{country},
			From:      from,
			Days:      days,
			PerOrg:    perOrg,
		}
		enr = &stream.CDNEnricher{DB: w.RoutingDB(), Registry: w.Registry, BotThreshold: botThreshold}
	}

	p, err := stream.New(stream.Config{Source: src, Enrich: enr, Publisher: &stream.EstimatorSink{Est: est}})
	if err != nil {
		fatal(err)
	}
	if err := p.Run(context.Background()); err != nil {
		fatal(err)
	}
	st := p.Stats()
	fmt.Fprintf(os.Stderr,
		"logpipe: stream drained: emitted=%d accepted=%d filtered=%d batches=%d published=%d failed=%d\n",
		st.Emitted, st.Accepted, st.Filtered, st.Batches, st.Published, st.PublishFailed)

	last := from.AddDays(days - 1)
	rep := est.Report(last)
	var rows [][]string
	for _, row := range rep.Rows {
		if row.CC != country {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Rank),
			fmt.Sprintf("AS%d", row.ASN),
			row.ASName,
			report.Count(int64(row.Users + 0.5)),
			fmt.Sprintf("%.2f%%", row.PctCountry),
			report.Count(row.Samples),
		})
		if len(rows) >= 15 {
			break
		}
	}
	fmt.Printf("rolling estimate for %s on %s (window %dd, %d retained day(s))\n\n",
		country, last, est.Window(), est.DaysHeld())
	fmt.Println(report.Table([]string{"rank", "AS", "name", "users", "% cc", "samples"}, rows))

	if !verify {
		return
	}
	if st.Emitted == 0 {
		// Two empty ledgers agree trivially; a check over nothing fails.
		fmt.Fprintln(os.Stderr, "logpipe: VERIFY FAILED: the stream emitted no events")
		os.Exit(1)
	}
	if msg := ledgerDiff(st); msg != "" {
		fmt.Fprintf(os.Stderr, "logpipe: VERIFY FAILED: drain ledger: %s\n", msg)
		os.Exit(1)
	}
	switch srcName {
	case "apnic":
		// Exact equality with the batch generator, day by day.
		for i := 0; i < days; i++ {
			day := from.AddDays(i)
			if msg := reportDiff(est.Report(day), gen.Generate(day)); msg != "" {
				fmt.Fprintf(os.Stderr, "logpipe: VERIFY FAILED on %s: %s\n", day, msg)
				os.Exit(1)
			}
		}
		fmt.Fprintf(os.Stderr, "logpipe: verify ok — streaming estimate equals batch report for %d day(s)\n", days)
	case "cdnlog":
		// Record-level sources can't reproduce the generator's counts, but
		// the stream's attribution ledger must match the batch aggregator's
		// over the same records.
		s := cdnlog.NewSampler(w, seed)
		agg := cdnlog.NewAggregator(w.RoutingDB(), w.Registry, botThreshold)
		for i := 0; i < days; i++ {
			s.EachDayRecord(country, from.AddDays(i), perOrg, func(rec cdnlog.Record) bool {
				agg.Add(rec)
				return true
			})
		}
		var human, bots int64
		for _, ps := range agg.Stats() {
			human += ps.Requests
			bots += ps.Bots
		}
		wantFiltered := bots + agg.Unrouted() + agg.Unassigned()
		if st.Published != human || st.Filtered != wantFiltered {
			fmt.Fprintf(os.Stderr,
				"logpipe: VERIFY FAILED: stream published=%d filtered=%d, batch aggregator human=%d dropped=%d\n",
				st.Published, st.Filtered, human, wantFiltered)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "logpipe: verify ok — stream ledger matches batch aggregator (%d human, %d dropped)\n",
			human, wantFiltered)
	}
}

// ledgerDiff returns "" when a drained pipeline's ledger reconciles —
// every emitted event was accepted, every accepted event was filtered
// or published, and no publish failed — or a short description of the
// first broken equation.
func ledgerDiff(st stream.Stats) string {
	switch {
	case st.Emitted != st.Accepted:
		return fmt.Sprintf("emitted %d != accepted %d", st.Emitted, st.Accepted)
	case st.Accepted != st.Filtered+st.Published+st.PublishFailed:
		return fmt.Sprintf("accepted %d != filtered %d + published %d + publish_failed %d",
			st.Accepted, st.Filtered, st.Published, st.PublishFailed)
	case st.PublishFailed != 0:
		return fmt.Sprintf("%d impressions in failed publishes", st.PublishFailed)
	}
	return ""
}

// reportDiff returns "" when the reports agree exactly, or a short
// description of the first difference.
func reportDiff(got, want *apnic.Report) string {
	if got.Date != want.Date || got.Window != want.Window {
		return fmt.Sprintf("header (%s, %d) != (%s, %d)", got.Date, got.Window, want.Date, want.Window)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d rows != %d rows", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if got.Rows[i] != want.Rows[i] {
			return fmt.Sprintf("row %d: %+v != %+v", i, got.Rows[i], want.Rows[i])
		}
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "logpipe:", err)
	os.Exit(1)
}
