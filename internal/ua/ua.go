// Package ua synthesizes HTTP User-Agent strings. The paper's CDN dataset
// counts unique User-Agent strings per (country, org) as a proxy for users
// behind shared IPs (§3.4); the simulator therefore needs a UA population
// that is diverse enough to distinguish hosts, with realistic device and
// browser families, and recognizable bot agents for the bot-score
// filtering path.
package ua

import (
	"strconv"

	"repro/internal/rng"
)

// desktop platform fragments with rough market weights.
var desktopPlatforms = []struct {
	frag   string
	os     string
	weight float64
}{
	{"Windows NT 10.0; Win64; x64", "Windows", 0.55},
	{"Macintosh; Intel Mac OS X 10_15_7", "macOS", 0.25},
	{"X11; Linux x86_64", "Linux", 0.08},
	{"Windows NT 6.1; Win64; x64", "Windows", 0.07},
	{"X11; Ubuntu; Linux x86_64", "Linux", 0.05},
}

var mobilePlatforms = []struct {
	frag   string
	os     string
	weight float64
}{
	{"Linux; Android 14; SM-S918B", "Android", 0.22},
	{"Linux; Android 13; SM-A536B", "Android", 0.20},
	{"Linux; Android 12; Redmi Note 11", "Android", 0.15},
	{"Linux; Android 11; M2101K6G", "Android", 0.08},
	{"iPhone; CPU iPhone OS 17_4 like Mac OS X", "iOS", 0.20},
	{"iPhone; CPU iPhone OS 16_6 like Mac OS X", "iOS", 0.10},
	{"iPad; CPU OS 17_4 like Mac OS X", "iOS", 0.05},
}

// bots the CDN's detector recognizes by UA alone.
var botAgents = []string{
	"Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)",
	"Mozilla/5.0 (compatible; bingbot/2.0; +http://www.bing.com/bingbot.htm)",
	"Mozilla/5.0 (compatible; AhrefsBot/7.0; +http://ahrefs.com/robot/)",
	"curl/8.4.0",
	"python-requests/2.31.0",
	"Go-http-client/2.0",
	"Scrapy/2.11.0 (+https://scrapy.org)",
	"okhttp/4.12.0",
}

var (
	desktopCum []float64
	mobileCum  []float64
)

func init() {
	dw := make([]float64, len(desktopPlatforms))
	for i, p := range desktopPlatforms {
		dw[i] = p.weight
	}
	desktopCum = rng.Cumulative(dw)
	mw := make([]float64, len(mobilePlatforms))
	for i, p := range mobilePlatforms {
		mw[i] = p.weight
	}
	mobileCum = rng.Cumulative(mw)
}

// Generator synthesizes User-Agent strings with a configurable mobile
// share. The zero value is not usable; call NewGenerator.
type Generator struct {
	stream      *rng.Stream
	mobileShare float64
}

// NewGenerator returns a generator drawing from stream with the given
// probability of producing a mobile UA.
func NewGenerator(stream *rng.Stream, mobileShare float64) *Generator {
	return &Generator{stream: stream, mobileShare: mobileShare}
}

// maxAgentLen bounds a generated human User-Agent (the longest, desktop
// Edge on macOS with three-digit Chrome patch numbers, is 141 bytes), so
// Generate can build it in a stack buffer.
const maxAgentLen = 192

// Generate returns a synthetic human-browser User-Agent. Two calls almost
// never return identical strings because the browser build number is drawn
// from a large space — mirroring the empirical near-uniqueness of real UA
// strings that the paper's user-counting relies on. The agent is appended
// into a stack buffer, so the returned string is the call's only
// allocation.
func (g *Generator) Generate() string {
	var buf [maxAgentLen]byte
	var b []byte
	if g.stream.Bool(g.mobileShare) {
		b = g.appendMobile(buf[:0])
	} else {
		b = g.appendDesktop(buf[:0])
	}
	return string(b)
}

// appendChromeVersion appends "major.0.build.patch".
func (g *Generator) appendChromeVersion(b []byte) []byte {
	major := 110 + g.stream.Intn(20)
	build := 5000 + g.stream.Intn(2000)
	patch := g.stream.Intn(200)
	b = strconv.AppendInt(b, int64(major), 10)
	b = append(b, ".0."...)
	b = strconv.AppendInt(b, int64(build), 10)
	b = append(b, '.')
	return strconv.AppendInt(b, int64(patch), 10)
}

// appendSafariVersion appends "major.minor" of a Safari release.
func (g *Generator) appendSafariVersion(b []byte) []byte {
	v := 16 + g.stream.Intn(2)
	minor := g.stream.Intn(6)
	b = strconv.AppendInt(b, int64(v), 10)
	b = append(b, '.')
	return strconv.AppendInt(b, int64(minor), 10)
}

func (g *Generator) appendDesktop(b []byte) []byte {
	p := desktopPlatforms[g.stream.Categorical(desktopCum)]
	b = append(b, "Mozilla/5.0 ("...)
	b = append(b, p.frag...)
	switch g.stream.Intn(10) {
	case 0, 1: // Firefox
		v := int64(115 + g.stream.Intn(12))
		b = append(b, "; rv:"...)
		b = strconv.AppendInt(b, v, 10)
		b = append(b, ".0) Gecko/20100101 Firefox/"...)
		b = strconv.AppendInt(b, v, 10)
		return append(b, ".0"...)
	case 2: // Safari (only plausible on macOS; fall through otherwise)
		if p.os == "macOS" {
			b = append(b, ") AppleWebKit/605.1.15 (KHTML, like Gecko) Version/"...)
			b = g.appendSafariVersion(b)
			return append(b, " Safari/605.1.15"...)
		}
		fallthrough
	case 3: // Edge
		b = append(b, ") AppleWebKit/537.36 (KHTML, like Gecko) Chrome/"...)
		n := len(b)
		b = g.appendChromeVersion(b)
		ver := b[n:]
		b = append(b, " Safari/537.36 Edg/"...)
		return append(b, ver...) // b's own tail: the copy reads the old bytes
	default: // Chrome
		b = append(b, ") AppleWebKit/537.36 (KHTML, like Gecko) Chrome/"...)
		b = g.appendChromeVersion(b)
		return append(b, " Safari/537.36"...)
	}
}

func (g *Generator) appendMobile(b []byte) []byte {
	p := mobilePlatforms[g.stream.Categorical(mobileCum)]
	b = append(b, "Mozilla/5.0 ("...)
	b = append(b, p.frag...)
	if p.os == "iOS" {
		b = append(b, ") AppleWebKit/605.1.15 (KHTML, like Gecko) Version/"...)
		b = g.appendSafariVersion(b)
		return append(b, " Mobile/15E148 Safari/604.1"...)
	}
	b = append(b, ") AppleWebKit/537.36 (KHTML, like Gecko) Chrome/"...)
	b = g.appendChromeVersion(b)
	return append(b, " Mobile Safari/537.36"...)
}

// GenerateBot returns a bot User-Agent.
func (g *Generator) GenerateBot() string {
	return botAgents[g.stream.Intn(len(botAgents))]
}
