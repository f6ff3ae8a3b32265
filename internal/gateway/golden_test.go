//go:build amd64

// The recorded digest holds on amd64 at every GOAMD64 level. There
// the Go 1.24 compiler fuses only an explicit math.FMA, which the
// decode path never calls, so even a GOAMD64=v3 build of cs, fleet,
// gateway and wavelet has no VFMADD; the assembly DWT tile interiors
// use none either. Where the compiler contracts x*y+z into one (arm64,
// ppc64, s390x) the solver's bits legitimately differ.

package gateway

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// signalDigest is FNV-1a over a multi-lead signal's exact bit patterns
// (lead count, then each lead's length and samples) — the encoding of
// netgw.SignalDigest, which this package cannot import (netgw imports
// gateway).
func signalDigest(signal [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(signal)))
	for _, lead := range signal {
		put(uint64(len(lead)))
		for _, v := range lead {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// TestReceiverGoldenDigest pins one warm, Tol-driven joint record's
// reconstruction to a recorded digest, decoded both inline and through
// a single-window engine. The engine-vs-inline comparisons elsewhere are
// relative; this one is absolute.
func TestReceiverGoldenDigest(t *testing.T) {
	const want = 0x10df36a26342ae6d
	events, _ := encodeRecord(t, 41, 8)
	cfg := warmConfig(t)
	for _, withEngine := range []bool{false, true} {
		rx, err := NewReceiver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if withEngine {
			eng, err := NewEngine(cfg, EngineConfig{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if err := rx.AttachEngine(eng); err != nil {
				t.Fatal(err)
			}
		}
		if err := rx.ConsumeEvents(events); err != nil {
			t.Fatal(err)
		}
		if rx.SamplesReceived() == 0 {
			t.Fatal("no windows decoded")
		}
		if got := signalDigest(rx.Signal()); got != want {
			t.Errorf("engine=%v: record digest %#016x, recorded %#016x", withEngine, got, uint64(want))
		}
	}
}
