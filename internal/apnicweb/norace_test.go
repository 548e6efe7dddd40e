//go:build !race

package apnicweb

const raceEnabled = false
