package ua

import (
	"strings"
	"testing"

	"repro/internal/rng"
)

func TestGenerateParsesAsHuman(t *testing.T) {
	g := NewGenerator(rng.New(1), 0.5)
	for i := 0; i < 2000; i++ {
		s := g.Generate()
		info := Parse(s)
		if info.Class == Bot {
			t.Fatalf("human UA classified as bot: %q", s)
		}
		if info.Class == Unknown {
			t.Fatalf("human UA unclassifiable: %q", s)
		}
		if info.Browser == "" {
			t.Fatalf("no browser parsed from %q", s)
		}
		if info.OS == "" {
			t.Fatalf("no OS parsed from %q", s)
		}
	}
}

func TestGenerateMobileShare(t *testing.T) {
	g := NewGenerator(rng.New(2), 0.7)
	mobile := 0
	n := 5000
	for i := 0; i < n; i++ {
		if Parse(g.Generate()).Class == Mobile {
			mobile++
		}
	}
	share := float64(mobile) / float64(n)
	if share < 0.65 || share > 0.75 {
		t.Fatalf("mobile share = %v, want ~0.7", share)
	}
}

func TestGenerateDiversity(t *testing.T) {
	// UA strings are a (good but imperfect) proxy for distinct users:
	// Chrome builds are near-unique, while Firefox/Safari collide on
	// their small version spaces, as in reality. Most draws must still
	// be distinct.
	g := NewGenerator(rng.New(3), 0.5)
	seen := map[string]bool{}
	n := 10000
	for i := 0; i < n; i++ {
		seen[g.Generate()] = true
	}
	if len(seen) < n*60/100 {
		t.Fatalf("only %d distinct UAs in %d draws", len(seen), n)
	}
}

func TestGenerateBot(t *testing.T) {
	g := NewGenerator(rng.New(4), 0.5)
	for i := 0; i < 200; i++ {
		s := g.GenerateBot()
		if Parse(s).Class != Bot {
			t.Fatalf("bot UA not classified as bot: %q", s)
		}
	}
}

func TestParseKnownAgents(t *testing.T) {
	cases := []struct {
		ua      string
		browser string
		os      string
		class   Class
	}{
		{
			"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/124.0.6367.60 Safari/537.36",
			"Chrome", "Windows", Desktop,
		},
		{
			"Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/17.3 Safari/605.1.15",
			"Safari", "macOS", Desktop,
		},
		{
			"Mozilla/5.0 (X11; Linux x86_64; rv:124.0) Gecko/20100101 Firefox/124.0",
			"Firefox", "Linux", Desktop,
		},
		{
			"Mozilla/5.0 (Linux; Android 14; SM-S918B) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/123.0.6312.80 Mobile Safari/537.36",
			"Chrome", "Android", Mobile,
		},
		{
			"Mozilla/5.0 (iPhone; CPU iPhone OS 17_4 like Mac OS X) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/17.4 Mobile/15E148 Safari/604.1",
			"Safari", "iOS", Mobile,
		},
		{
			"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/122.0.0.0 Safari/537.36 Edg/122.0.2365.92",
			"Edge", "Windows", Desktop,
		},
	}
	for _, c := range cases {
		got := Parse(c.ua)
		if got.Browser != c.browser || got.OS != c.os || got.Class != c.class {
			t.Errorf("Parse(%q) = %+v, want {%s %s %v}", c.ua, got, c.browser, c.os, c.class)
		}
		if got.Version == "" {
			t.Errorf("no version parsed from %q", c.ua)
		}
	}
}

func TestParseBots(t *testing.T) {
	cases := map[string]string{
		"Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)": "Googlebot",
		"curl/8.4.0":                  "curl",
		"python-requests/2.31.0":      "python-requests",
		"Go-http-client/2.0":          "Go-http-client",
		"SomeRandomCrawler/1.0":       "bot",
		"MySpider (+http://x.test)":   "bot",
		"okhttp/4.12.0":               "okhttp",
		"Scrapy/2.11.0 (+scrapy.org)": "Scrapy",
	}
	for uaStr, wantName := range cases {
		got := Parse(uaStr)
		if got.Class != Bot {
			t.Errorf("Parse(%q).Class = %v, want Bot", uaStr, got.Class)
		}
		if got.Browser != wantName {
			t.Errorf("Parse(%q).Browser = %q, want %q", uaStr, got.Browser, wantName)
		}
	}
}

func TestParseGarbage(t *testing.T) {
	for _, s := range []string{"", "???", "Mozilla/5.0"} {
		got := Parse(s)
		if got.Class != Unknown {
			t.Errorf("Parse(%q).Class = %v, want Unknown", s, got.Class)
		}
	}
}

func TestVersionExtraction(t *testing.T) {
	got := Parse("Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/124.0.6367.60 Safari/537.36")
	if got.Version != "124" {
		t.Errorf("Version = %q, want 124", got.Version)
	}
}

func TestClassString(t *testing.T) {
	if Desktop.String() != "desktop" || Mobile.String() != "mobile" || Bot.String() != "bot" || Unknown.String() != "unknown" {
		t.Error("Class.String mismatch")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(rng.New(77), 0.4)
	g2 := NewGenerator(rng.New(77), 0.4)
	for i := 0; i < 100; i++ {
		if g1.Generate() != g2.Generate() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestDesktopSafariOnlyOnMac(t *testing.T) {
	g := NewGenerator(rng.New(5), 0)
	for i := 0; i < 3000; i++ {
		s := g.Generate()
		info := Parse(s)
		if info.Browser == "Safari" && info.Class == Desktop && !strings.Contains(s, "Mac OS X") {
			t.Fatalf("desktop Safari on non-Mac platform: %q", s)
		}
	}
}

// TestGenerateAllocs holds the synthesis budget: Generate builds the
// agent in a stack buffer, so its string is the one allocation, and
// GenerateBot returns a table entry without allocating.
func TestGenerateAllocs(t *testing.T) {
	for _, share := range []float64{0, 0.5, 1} {
		g := NewGenerator(rng.New(6), share)
		if n := testing.AllocsPerRun(2000, func() { g.Generate() }); n > 1 {
			t.Errorf("Generate (mobile share %v) makes %v allocations per call, want <= 1", share, n)
		}
	}
	g := NewGenerator(rng.New(7), 0.5)
	if n := testing.AllocsPerRun(2000, func() { g.GenerateBot() }); n != 0 {
		t.Errorf("GenerateBot makes %v allocations per call, want 0", n)
	}
}

func BenchmarkGenerate(b *testing.B) {
	g := NewGenerator(rng.New(8), 0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Generate()
	}
}
