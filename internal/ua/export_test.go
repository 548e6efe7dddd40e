package ua

import "strings"

// The User-Agent classifier below is the tests' oracle: generated agents
// must parse back to the device class, OS and browser they were drawn
// as. Nothing in the simulator classifies agents.

// Class is the broad device class of a User-Agent.
type Class int

// Device classes.
const (
	Unknown Class = iota
	Desktop
	Mobile
	Bot
)

func (c Class) String() string {
	switch c {
	case Desktop:
		return "desktop"
	case Mobile:
		return "mobile"
	case Bot:
		return "bot"
	default:
		return "unknown"
	}
}

// Info is the result of parsing a User-Agent string.
type Info struct {
	Browser string // Chrome, Firefox, Safari, Edge, bot name, ...
	Version string // major version, e.g. "124"
	OS      string // Windows, macOS, Linux, Android, iOS
	Class   Class
}

// Parse classifies a User-Agent string. It is intentionally conservative:
// unrecognized strings come back with Class Unknown.
func Parse(s string) Info {
	if s == "" {
		return Info{}
	}
	if isBot(s) {
		return Info{Browser: botName(s), Class: Bot}
	}
	info := Info{Class: Desktop}
	switch {
	case strings.Contains(s, "Android"):
		info.OS = "Android"
		info.Class = Mobile
	case strings.Contains(s, "iPhone OS"), strings.Contains(s, "iPad"):
		info.OS = "iOS"
		info.Class = Mobile
	case strings.Contains(s, "Windows NT"):
		info.OS = "Windows"
	case strings.Contains(s, "Mac OS X"):
		info.OS = "macOS"
	case strings.Contains(s, "Linux"):
		info.OS = "Linux"
	default:
		info.Class = Unknown
	}
	switch {
	case strings.Contains(s, "Edg/"):
		info.Browser = "Edge"
		info.Version = majorAfter(s, "Edg/")
	case strings.Contains(s, "Firefox/"):
		info.Browser = "Firefox"
		info.Version = majorAfter(s, "Firefox/")
	case strings.Contains(s, "Chrome/"):
		info.Browser = "Chrome"
		info.Version = majorAfter(s, "Chrome/")
	case strings.Contains(s, "Safari/") && strings.Contains(s, "Version/"):
		info.Browser = "Safari"
		info.Version = majorAfter(s, "Version/")
	default:
		if info.Class == Unknown {
			return Info{}
		}
	}
	return info
}

func isBot(s string) bool {
	lower := strings.ToLower(s)
	for _, marker := range []string{"bot", "curl/", "python-requests", "go-http-client", "scrapy", "okhttp", "spider", "crawler"} {
		if strings.Contains(lower, marker) {
			return true
		}
	}
	return false
}

func botName(s string) string {
	lower := strings.ToLower(s)
	switch {
	case strings.Contains(lower, "googlebot"):
		return "Googlebot"
	case strings.Contains(lower, "bingbot"):
		return "bingbot"
	case strings.Contains(lower, "ahrefsbot"):
		return "AhrefsBot"
	case strings.Contains(lower, "curl/"):
		return "curl"
	case strings.Contains(lower, "python-requests"):
		return "python-requests"
	case strings.Contains(lower, "go-http-client"):
		return "Go-http-client"
	case strings.Contains(lower, "scrapy"):
		return "Scrapy"
	case strings.Contains(lower, "okhttp"):
		return "okhttp"
	default:
		return "bot"
	}
}

// majorAfter extracts the major version number following a marker like
// "Chrome/".
func majorAfter(s, marker string) string {
	i := strings.Index(s, marker)
	if i < 0 {
		return ""
	}
	rest := s[i+len(marker):]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	return rest[:end]
}
