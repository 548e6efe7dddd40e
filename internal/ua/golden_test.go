package ua

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/rng"
)

// TestGenerateGolden pins the generator's output bytes and rng draw
// order: for each mobile share, one seeded generator produces 5,000
// agents, every seventh a bot, and the SHA-256 of the newline-joined
// strings must not move.
func TestGenerateGolden(t *testing.T) {
	const want = "df02caa58dff90022a4a34dbe107072079490e185db00f4493b15611a3c9afd4"
	h := sha256.New()
	for i, share := range []float64{0, 0.3, 0.7, 1} {
		g := NewGenerator(rng.New(uint64(100+i)), share)
		for j := 0; j < 5000; j++ {
			var s string
			if j%7 == 6 {
				s = g.GenerateBot()
			} else {
				s = g.Generate()
			}
			h.Write([]byte(s))
			h.Write([]byte{'\n'})
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("sha256 of generated agents = %s, want %s", got, want)
	}
}
