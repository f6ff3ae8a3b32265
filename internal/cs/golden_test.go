//go:build amd64

// The recorded digests hold on amd64 at every GOAMD64 level. There
// the Go 1.24 compiler fuses only an explicit math.FMA, which the
// decode path never calls, so even a GOAMD64=v3 build of cs, fleet,
// gateway and wavelet has no VFMADD; the assembly DWT tile interiors
// use none either. Where the compiler contracts x*y+z into one (arm64,
// ppc64, s390x) the solver's bits legitimately differ.

package cs

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"wbsn/internal/ecg"
)

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// digestWindows folds a sequence of decoded windows and their stats
// into one FNV-1a digest over exact bit patterns: lead count, each
// lead's length and sample bits, then every SolveStats field.
func digestWindows(xs [][][]float64, sts []SolveStats) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for w, x := range xs {
		put(uint64(len(x)))
		for _, lead := range x {
			put(uint64(len(lead)))
			for _, v := range lead {
				put(math.Float64bits(v))
			}
		}
		st := sts[w]
		put(uint64(st.Iters))
		put(uint64(st.Restarts))
		put(bit(st.EarlyExit)<<2 | bit(st.Warm)<<1 | bit(st.ColdFallback))
	}
	return h.Sum64()
}

// goldenFixture encodes three consecutive 3-lead windows, either every
// lead through one shared matrix or each lead through its own.
func goldenFixture(t *testing.T, perLead bool) ([]Matrix, [][][]float64) {
	t.Helper()
	const n, windows = 512, 3
	m := MeasurementsForCR(n, 65.9)
	mats := 1
	if perLead {
		mats = 3
	}
	phis := make([]Matrix, mats)
	encs := make([]*Encoder, mats)
	for i := range phis {
		phi, err := NewSparseBinary(m, n, 4, rand.New(rand.NewSource(int64(21+i))))
		if err != nil {
			t.Fatal(err)
		}
		phis[i], encs[i] = phi, NewEncoder(phi)
	}
	rec := ecg.Generate(ecg.Config{Seed: 21, Duration: float64(windows*n)/256 + 1})
	meas := make([][][]float64, windows)
	for w := range meas {
		meas[w] = make([][]float64, len(rec.Clean))
		for li := range rec.Clean {
			enc := encs[min(li, mats-1)]
			meas[w][li] = enc.Encode(rec.Clean[li][w*n : (w+1)*n])
		}
	}
	return phis, meas
}

// goldenSolve runs one entry point over a window sequence: a cold solve
// of window 0 without state, then every window in order through one
// WarmState (window 0 cold, later windows warm). single decodes lead 0
// through the single-lead entry points.
func goldenSolve(t *testing.T, dec *Decoder, solver string, meas [][][]float64, ws *WarmState) ([][][]float64, []SolveStats) {
	t.Helper()
	solve := func(y [][]float64, ws *WarmState) ([][]float64, SolveStats) {
		var xs [][]float64
		var st SolveStats
		var err error
		switch solver {
		case "single":
			var x []float64
			x, st, err = dec.ReconstructWarm(y[0], ws)
			xs = [][]float64{x}
		case "leads":
			xs, st, err = dec.ReconstructLeadsWarm(y, ws)
		case "joint":
			xs, st, err = dec.ReconstructJointWarm(y, ws)
		}
		if err != nil {
			t.Fatal(err)
		}
		return xs, st
	}
	var xs [][][]float64
	var sts []SolveStats
	x, st := solve(meas[0], nil)
	xs, sts = append(xs, x), append(sts, st)
	for _, y := range meas {
		x, st := solve(y, ws)
		xs, sts = append(xs, x), append(sts, st)
	}
	return xs, sts
}

// TestSolverGoldenDigests pins the FISTA decoders' absolute output.
// Every other decode comparison in the repo is relative (batch vs K=1,
// networked vs in-process, cluster vs flat), so a drift that moves both
// sides at once passes them all; these recorded digests do not. The
// matrix is the batch bit-identity matrix — independent ℓ1 and joint
// ℓ2,1 (plus the single-lead entry point), fixed budget and Tol-driven,
// cold and warm over consecutive windows, shared and per-lead sensing
// matrices — plus a forced warm-divergence cold fallback. A deliberate
// numerical change re-pins these with its reason recorded.
func TestSolverGoldenDigests(t *testing.T) {
	want := map[string]uint64{
		"fallback/joint":       0x4150b53639a693cd,
		"fallback/leads":       0x12f834eb17eddd3f,
		"fallback/single":      0x82e593628c1f3df9,
		"perlead/fixed/joint":  0x6e49924e21446363,
		"perlead/fixed/leads":  0x32779985744841f3,
		"perlead/fixed/single": 0x10ab849a23605e60,
		"perlead/tol/joint":    0xf55b9ab3764a9126,
		"perlead/tol/leads":    0x21841b5e0d90a99c,
		"perlead/tol/single":   0x1dc2654ff6549587,
		"shared/fixed/joint":   0x0a0a6c1c0790b4de,
		"shared/fixed/leads":   0xacd9a9721f82d17c,
		"shared/fixed/single":  0x41d68d4e2d0f5c60,
		"shared/tol/joint":     0x6b7aa7dd11ef1a09,
		"shared/tol/leads":     0xe4ec05445322f5e9,
		"shared/tol/single":    0x4c5e0476466a75b3,
	}
	got := map[string]uint64{}
	for _, perLead := range []bool{false, true} {
		phis, meas := goldenFixture(t, perLead)
		mname := "shared"
		if perLead {
			mname = "perlead"
		}
		for _, tc := range []struct {
			name string
			cfg  SolverConfig
		}{
			{"fixed", SolverConfig{Iters: 30, Reweights: 1}},
			{"tol", SolverConfig{Iters: 60, Reweights: 1, Tol: 1e-3}},
		} {
			dec, err := NewJointDecoder(phis, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, solver := range []string{"single", "leads", "joint"} {
				xs, sts := goldenSolve(t, dec, solver, meas, NewWarmState())
				if sts[0].Warm || !sts[2].Warm || !sts[3].Warm {
					t.Fatalf("%s/%s/%s: warm flags %+v", mname, tc.name, solver, sts)
				}
				got[mname+"/"+tc.name+"/"+solver] = digestWindows(xs, sts)
			}
		}
		if perLead {
			continue
		}
		dec, err := NewJointDecoder(phis, SolverConfig{Iters: 3, MinIters: 1, Tol: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		for _, solver := range []string{"single", "leads", "joint"} {
			leads := 3
			if solver == "single" {
				leads = 1
			}
			xs, sts := goldenSolve(t, dec, solver, meas[:1], poisonedState(leads, 512))
			if !sts[1].ColdFallback || sts[1].Warm {
				t.Fatalf("fallback/%s: poisoned seed did not fall back cold: %+v", solver, sts[1])
			}
			got["fallback/"+solver] = digestWindows(xs, sts)
		}
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no recorded digest (got %#016x)", name, g)
			continue
		}
		if g != w {
			t.Errorf("%s: digest %#016x, recorded %#016x", name, g, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("recorded %d digests, computed %d", len(want), len(got))
	}
}
