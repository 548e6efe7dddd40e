// Command apnicgen generates dataset CSVs from the synthetic world. By
// default it emits APNIC-style daily reports in the legacy column layout;
// -dataset selects any registered source (apnic, cdn, itu, mlab,
// dnscount, broadband, ixp) and emits its self-describing frame CSV.
//
// Usage:
//
//	apnicgen -seed 42 -from 2024-04-01 -to 2024-04-07 -out reports/
//	apnicgen -date 2024-04-21                      # single day to stdout
//	apnicgen -dataset cdn -date 2024-04-21         # frame CSV of another dataset
//	apnicgen -dataset cdn -format bin -out frames/ # binary frame artifacts
//	apnicgen -dataset cdn -format binz -out frames/ # compressed binary artifacts
//
// -format bin emits the compact binary frame codec (the same bytes the
// server's .bin route serves) and -format binz its compressed extension
// (the .binz route's bytes) instead of CSV; both require -dataset, since
// the legacy APNIC layout is CSV-only by definition.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/apnic"
	"repro/internal/dates"
	"repro/internal/itu"
	"repro/internal/source"
	"repro/internal/source/binfmt"
	"repro/internal/source/bundle"
	"repro/internal/source/framez"
	"repro/internal/world"
)

func main() {
	seed := flag.Uint64("seed", 42, "world seed")
	date := flag.String("date", "", "single report date (YYYY-MM-DD), written to stdout")
	from := flag.String("from", "", "range start (YYYY-MM-DD)")
	to := flag.String("to", "", "range end (YYYY-MM-DD)")
	step := flag.Int("step", 1, "days between reports in range mode")
	out := flag.String("out", ".", "output directory for range mode")
	dataset := flag.String("dataset", "",
		"emit this dataset's frame CSV instead of the legacy APNIC layout (apnic, cdn, itu, mlab, dnscount, broadband, ixp)")
	format := flag.String("format", "csv", "frame output format: csv, bin or binz (bin/binz require -dataset)")
	flag.Parse()

	if *format != "csv" && *format != "bin" && *format != "binz" {
		fmt.Fprintf(os.Stderr, "apnicgen: unknown -format %q (want csv, bin or binz)\n", *format)
		os.Exit(2)
	}
	if *format != "csv" && *dataset == "" {
		fmt.Fprintf(os.Stderr, "apnicgen: -format %s requires -dataset; the legacy APNIC layout is CSV-only\n", *format)
		os.Exit(2)
	}

	w := world.MustBuild(world.Config{Seed: *seed})

	// writeDay abstracts over the output modes: the legacy APNIC CSV
	// (default, byte-identical to what apnicgen has always produced) and
	// the generic frame of any registered dataset, as CSV or the binary
	// frame codec.
	var writeDay func(d dates.Date, out io.Writer) error
	prefix, ext := "apnic", ".csv"
	if *dataset == "" {
		gen := apnic.New(w, itu.New(w, *seed), *seed)
		writeDay = func(d dates.Date, out io.Writer) error {
			return gen.Generate(d).WriteCSV(out)
		}
	} else {
		b := bundle.New(w, *seed, bundle.Config{})
		if _, ok := b.Registry.Lookup(*dataset); !ok {
			fmt.Fprintf(os.Stderr, "apnicgen: unknown dataset %q (have: %s)\n",
				*dataset, strings.Join(b.Registry.Names(), ", "))
			os.Exit(2)
		}
		prefix = *dataset
		var encode func(*source.Frame) ([]byte, error)
		switch *format {
		case "bin":
			ext, encode = binfmt.Suffix, binfmt.Encode
		case "binz":
			ext, encode = framez.Suffix, framez.Encode
		}
		writeDay = func(d dates.Date, out io.Writer) error {
			f, err := b.Registry.Frame(*dataset, d)
			if err != nil {
				return err
			}
			if encode == nil {
				return f.WriteCSV(out)
			}
			buf, err := encode(f)
			if err != nil {
				return err
			}
			_, err = out.Write(buf)
			return err
		}
	}

	if *date != "" {
		d, err := dates.Parse(*date)
		if err != nil {
			fatal(err)
		}
		if err := writeDay(d, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	if *from == "" || *to == "" {
		fmt.Fprintln(os.Stderr, "need -date, or -from and -to")
		os.Exit(2)
	}
	f, err := dates.Parse(*from)
	if err != nil {
		fatal(err)
	}
	t, err := dates.Parse(*to)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	for _, d := range dates.Range(f, t, *step) {
		path := filepath.Join(*out, fmt.Sprintf("%s-%s%s", prefix, d, ext))
		file, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		err = writeDay(d, file)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println(path)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apnicgen:", err)
	os.Exit(1)
}
