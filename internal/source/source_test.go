package source

import (
	"strings"
	"testing"

	"repro/internal/dates"
)

func TestCheckRange(t *testing.T) {
	day := dates.New(2024, 5, 1)
	for _, tc := range []struct {
		name        string
		first, last dates.Date
		wantErr     string
	}{
		{"whole span", SpanFirst, SpanLast, ""},
		{"single day", day, day, ""},
		{"inverted", day.AddDays(1), day, "after last date"},
		{"starts before span", SpanFirst.AddDays(-1), SpanLast, "outside the simulated span"},
		{"ends after span", SpanFirst, SpanLast.AddDays(1), "outside the simulated span"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckRange(tc.first, tc.last)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("CheckRange(%s, %s) = %v, want nil", tc.first, tc.last, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("CheckRange(%s, %s) = %v, want error containing %q", tc.first, tc.last, err, tc.wantErr)
			}
		})
	}
}
