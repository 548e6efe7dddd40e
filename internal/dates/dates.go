// Package dates implements timezone-free civil-date arithmetic. The APNIC
// dataset is a daily report over a 60-day moving window spanning 2013–2024;
// all generators and analyses index data by civil day, so a minimal Date
// type avoids both time.Time's timezone pitfalls and any wall-clock reads
// (library code must stay deterministic).
package dates

import (
	"fmt"
	"strconv"
	"strings"
)

// Date is a civil calendar date.
type Date struct {
	Year  int
	Month int // 1..12
	Day   int // 1..31
}

// New returns the date for y-m-d. It does not normalize; use FromDayNumber
// for arithmetic results.
func New(y, m, d int) Date { return Date{Year: y, Month: m, Day: d} }

// Parse parses "YYYY-MM-DD".
func Parse(s string) (Date, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return Date{}, fmt.Errorf("dates: invalid date %q", s)
	}
	y, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	d, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return Date{}, fmt.Errorf("dates: invalid date %q", s)
	}
	dt := Date{y, m, d}
	if !dt.Valid() {
		return Date{}, fmt.Errorf("dates: invalid date %q", s)
	}
	return dt, nil
}

// MustParse is Parse for compile-time-known literals; it panics on error.
func MustParse(s string) Date {
	d, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return d
}

// String formats the date as "YYYY-MM-DD".
func (d Date) String() string {
	return fmt.Sprintf("%04d-%02d-%02d", d.Year, d.Month, d.Day)
}

// Valid reports whether the date is a real calendar date.
func (d Date) Valid() bool {
	if d.Month < 1 || d.Month > 12 || d.Day < 1 {
		return false
	}
	return d.Day <= daysInMonth(d.Year, d.Month)
}

func isLeap(y int) bool {
	return y%4 == 0 && (y%100 != 0 || y%400 == 0)
}

func daysInMonth(y, m int) int {
	switch m {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	default:
		if isLeap(y) {
			return 29
		}
		return 28
	}
}

// DayNumber returns the number of days since 1970-01-01 (which is day 0).
// Negative for earlier dates. The computation uses the standard civil-
// from-days algorithm (Howard Hinnant's chrono derivation).
func (d Date) DayNumber() int {
	y := d.Year
	if d.Month <= 2 {
		y--
	}
	era := y / 400
	if y < 0 && y%400 != 0 {
		era--
	}
	yoe := y - era*400 // [0, 399]
	m := d.Month
	var doy int
	if m > 2 {
		doy = (153*(m-3)+2)/5 + d.Day - 1
	} else {
		doy = (153*(m+9)+2)/5 + d.Day - 1
	}
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return era*146097 + doe - 719468
}

// FromDayNumber is the inverse of DayNumber.
func FromDayNumber(z int) Date {
	z += 719468
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	day := doy - (153*mp+2)/5 + 1
	m := mp + 3
	if mp >= 10 {
		m = mp - 9
	}
	if m <= 2 {
		y++
	}
	return Date{Year: y, Month: m, Day: day}
}

// AddDays returns the date n days after d (n may be negative).
func (d Date) AddDays(n int) Date {
	return FromDayNumber(d.DayNumber() + n)
}

// Sub returns the number of days from other to d (d − other).
func (d Date) Sub(other Date) int {
	return d.DayNumber() - other.DayNumber()
}

// Before reports whether d is strictly before other.
func (d Date) Before(other Date) bool { return d.DayNumber() < other.DayNumber() }

// After reports whether d is strictly after other.
func (d Date) After(other Date) bool { return d.DayNumber() > other.DayNumber() }

// Range returns all dates from from to to inclusive, stepping by step days.
// It returns nil if to is before from or step <= 0.
func Range(from, to Date, step int) []Date {
	if step <= 0 || to.Before(from) {
		return nil
	}
	var out []Date
	for n := from.DayNumber(); n <= to.DayNumber(); n += step {
		out = append(out, FromDayNumber(n))
	}
	return out
}

// YearStart returns January 1 of the given year.
func YearStart(y int) Date { return Date{Year: y, Month: 1, Day: 1} }

// WeekIndex returns the 7-day bucket of a date counted from the epoch
// (floor division, so pre-1970 dates land in the correct bucket). The ITU
// revision series and the scenario engine's registry-spike events must
// agree on week boundaries, so both use this single definition.
func WeekIndex(d Date) int {
	n := d.DayNumber()
	if n < 0 {
		n -= 6
	}
	return n / 7
}
