package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/words"
)

// TestStandardNetGoldenWire pins the wire bytes of the daemon-default
// net summary after a fixed input, fed through both the batched and
// the per-row path. Any change to a sketch value or to the order of
// its float additions changes the hash.
func TestStandardNetGoldenWire(t *testing.T) {
	const want = "1b7583fd8a5a503a3a295d982d45d6ff516610f866e6a7495436ded7d112e2e2"
	s, err := StandardSummary("net", 12, 2, 0.05, 0.01, 0.3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(0x601d)
	b := words.NewBatch(12, 600)
	for i := 0; i < 600; i++ {
		w := b.AppendRow()
		for j := range w {
			w[j] = uint16(src.Intn(2))
		}
	}
	bo := s.(core.BatchObserver)
	bo.ObserveBatch(b.Slice(0, 256))
	bo.ObserveBatch(b.Slice(256, 512))
	for i := 512; i < b.Len(); i++ {
		s.Observe(b.Row(i))
	}
	blob, err := core.MarshalSummary(s)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("net summary wire sha256 %s, want %s (%d bytes)", got, want, len(blob))
	}
}
