package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                           string
		mode, streamSrc, country, date string
		days, perOrg                   int
		wantErr                        string // substring; empty means accepted
	}{
		{"sample defaults", "sample", "apnic", "FR", "2024-04-21", 1, 200, ""},
		{"aggregate", "aggregate", "apnic", "FR", "2024-04-21", 1, 200, ""},
		{"stream apnic", "stream", "apnic", "FR", "2024-04-21", 1, 200, ""},
		{"stream cdnlog", "stream", "cdnlog", "NO", "2024-04-21", 7, 50, ""},
		{"unknown mode", "replay", "apnic", "FR", "2024-04-21", 1, 200, "unknown mode"},
		{"unknown stream source", "stream", "kafka", "FR", "2024-04-21", 1, 200, "unknown stream source"},
		{"unknown country", "stream", "cdnlog", "XX", "2024-04-21", 1, 50, "-country"},
		{"lower-case country", "sample", "apnic", "fr", "2024-04-21", 1, 200, "-country"},
		{"empty country", "sample", "apnic", "", "2024-04-21", 1, 200, "-country"},
		{"zero days", "stream", "apnic", "FR", "2024-04-21", 0, 200, "-days"},
		{"negative days", "stream", "apnic", "FR", "2024-04-21", -3, 200, "-days"},
		{"zero per-org", "stream", "cdnlog", "FR", "2024-04-21", 1, 0, "-per-org"},
		{"negative per-org", "sample", "apnic", "FR", "2024-04-21", 1, -1, "-per-org"},
		{"bad date", "stream", "apnic", "FR", "2024-02-30", 1, 200, "-date"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := checkFlags(tc.mode, tc.streamSrc, tc.country, tc.date, tc.days, tc.perOrg)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("checkFlags: %v", err)
			case tc.wantErr == "" && d.String() != tc.date:
				t.Errorf("checkFlags date = %s, want %s", d, tc.date)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("checkFlags error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
