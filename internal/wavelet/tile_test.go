package wavelet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// sameBits reports whether two kernel outputs agree: bit for bit, except
// that any NaN matches any NaN. NaN payloads are outside the contract —
// which operand's payload an add propagates depends on register choice,
// and the Go tile already differed from analyzeOne there.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) {
		return math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// edgeLanes returns four n-long lanes holding the values where a kernel
// could round or propagate differently: lane 0 normal values salted with
// -0 and subnormals, lane 1 nothing but signed zeros and subnormals,
// lane 2 normal values with one +Inf and one -Inf, lane 3 normal values
// with one NaN.
func edgeLanes(rng *rand.Rand, n int) [4][]float64 {
	tiny := []float64{
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		1e-310, -2.5e-320, 0x1p-1022 - 0x1p-1074,
	}
	var x [4][]float64
	for l := range x {
		x[l] = make([]float64, n)
		for i := range x[l] {
			x[l][i] = rng.NormFloat64()
		}
	}
	for i := range x[0] {
		switch i % 6 {
		case 1:
			x[0][i] = math.Copysign(0, -1)
		case 4:
			x[0][i] = tiny[rng.Intn(len(tiny))]
		}
		x[1][i] = tiny[rng.Intn(len(tiny))]
	}
	x[2][rng.Intn(n)] = math.Inf(1)
	x[2][rng.Intn(n)] = math.Inf(-1)
	x[3][rng.Intn(n)] = math.NaN()
	return x
}

// lanes returns four zeroed n-long lanes.
func lanes(n int) [4][]float64 {
	var x [4][]float64
	for l := range x {
		x[l] = make([]float64, n)
	}
	return x
}

// checkLanes fails the test at the first element where got and want
// disagree under sameBits.
func checkLanes(t *testing.T, what string, got, want [4][]float64) {
	t.Helper()
	for l := range got {
		for i, v := range want[l] {
			if !sameBits(got[l][i], v) {
				t.Fatalf("%s lane %d [%d]: %v (%#x), want %v (%#x)", what, l, i,
					got[l][i], math.Float64bits(got[l][i]), v, math.Float64bits(v))
			}
		}
	}
}

// edgeLengths are the level lengths the tile kernels see: every level
// of the solver geometry (n=512, 5 levels) and the deep levels below
// it, down to 2 where only Haar has an interior.
var edgeLengths = []int{512, 256, 128, 64, 32, 16, 8, 4, 2}

// TestInteriorOracle checks this build's tile interiors (assembly on
// amd64) against the Go interiors bit for bit, and whole tiles against
// analyzeOne/synthesizeOne, on lanes full of ±Inf, -0, subnormals and
// NaN, for every filter and level length.
func TestInteriorOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, w := range []*Orthogonal{Haar(), Daubechies4(), Daubechies8(), Symlet8()} {
		for _, n := range edgeLengths {
			what := fmt.Sprintf("%s n=%d", w.Name(), n)
			half := n / 2
			ni := interiorCount(n, w.Taps())
			x := edgeLanes(rng, n)
			aArch, dArch, aGo, dGo := lanes(half), lanes(half), lanes(half), lanes(half)
			analyzeInterior(w, x, aArch, dArch, ni)
			analyzeInteriorGo(w, x, aGo, dGo, ni)
			checkLanes(t, what+" analyze interior a", aArch, aGo)
			checkLanes(t, what+" analyze interior d", dArch, dGo)
			aTile, dTile, aOne, dOne := lanes(half), lanes(half), lanes(half), lanes(half)
			w.analyzeTile(x, aTile, dTile, analyzeInterior)
			for l := range x {
				w.analyzeOne(x[l], aOne[l], dOne[l])
			}
			checkLanes(t, what+" analyze tile a", aTile, aOne)
			checkLanes(t, what+" analyze tile d", dTile, dOne)

			a, d := edgeLanes(rng, half), edgeLanes(rng, half)
			xArch, xGo := lanes(n), lanes(n)
			synthesizeInterior(w, a, d, xArch, ni)
			synthesizeInteriorGo(w, a, d, xGo, ni)
			checkLanes(t, what+" synthesize interior", xArch, xGo)
			xTile, xOne := lanes(n), lanes(n)
			w.synthesizeTile(a, d, xTile, synthesizeInterior)
			for l := range a {
				w.synthesizeOne(a[l], d[l], xOne[l])
			}
			checkLanes(t, what+" synthesize tile", xTile, xOne)
		}
	}
}

// TestDeepLevelsRoundTrip runs every depth down to a 1-sample
// approximation band, levels shorter than the filter included, through
// the scalar and batched transforms: both must preserve energy and
// invert to 1e-11, for every filter. The tabulated coefficients are
// orthonormal to about 1e-12, which bounds the energy tolerance.
func TestDeepLevelsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, w := range []*Orthogonal{Haar(), Daubechies4(), Daubechies8(), Symlet8()} {
		for _, n := range []int{8, 16, 512} {
			for levels := 1; 1<<uint(levels) <= n; levels++ {
				what := fmt.Sprintf("%s n=%d levels=%d", w.Name(), n, levels)
				const P = 4
				x := make([]float64, P*n)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				planes := []int{0, 1, 2, 3}
				var s BatchScratch
				c := make([]float64, P*n)
				back := make([]float64, P*n)
				if err := w.ForwardBatchInto(x, n, levels, planes, c, &s); err != nil {
					t.Fatalf("%s: ForwardBatchInto: %v", what, err)
				}
				if err := w.InverseBatchInto(c, n, levels, planes, back, &s); err != nil {
					t.Fatalf("%s: InverseBatchInto: %v", what, err)
				}
				for p := 0; p < P; p++ {
					stripe := x[p*n : (p+1)*n]
					cs, err := w.Forward(stripe, levels)
					if err != nil {
						t.Fatalf("%s: Forward: %v", what, err)
					}
					xs, err := w.Inverse(cs, levels)
					if err != nil {
						t.Fatalf("%s: Inverse: %v", what, err)
					}
					var ex, ec float64
					for i, v := range stripe {
						ex += v * v
						ec += cs[i] * cs[i]
						if e := math.Abs(xs[i] - v); e > 1e-11 {
							t.Fatalf("%s plane %d: scalar round trip [%d] off by %g", what, p, i, e)
						}
						if e := math.Abs(back[p*n+i] - v); e > 1e-11 {
							t.Fatalf("%s plane %d: batch round trip [%d] off by %g", what, p, i, e)
						}
					}
					if r := ec / ex; math.Abs(r-1) > 1e-11 {
						t.Fatalf("%s plane %d: energy ratio %v, want 1", what, p, r)
					}
				}
			}
		}
	}
}

// BenchmarkDWTTile times ForwardBatchInto+InverseBatchInto at the solver
// geometry (n=512, 5-level db8, 4 planes) and, interleaved in the same
// iterations, the same transforms through the Go tile interiors. asm/go
// is the ratio of the two times, so host speed drift cancels; on builds
// without an assembly interior it is 1 up to noise. ns/op covers both.
func BenchmarkDWTTile(b *testing.B) {
	const n = 512
	const levels = 5
	const P = 4
	w := Daubechies8()
	rng := rand.New(rand.NewSource(31))
	x := make([]float64, P*n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	c := make([]float64, P*n)
	back := make([]float64, P*n)
	planes := []int{0, 1, 2, 3}
	var s BatchScratch
	run := func(analyze, synthesize interiorFunc) func() {
		return func() {
			if err := w.forwardBatch(x, n, levels, planes, c, &s, analyze); err != nil {
				b.Fatal(err)
			}
			if err := w.inverseBatch(c, n, levels, planes, back, &s, synthesize); err != nil {
				b.Fatal(err)
			}
		}
	}
	arch := run(analyzeInterior, synthesizeInterior)
	portable := run(analyzeInteriorGo, synthesizeInteriorGo)
	arch() // warm the scratch
	portable()
	var ta, tg time.Duration
	timed := func(f func(), acc *time.Duration) {
		t0 := time.Now()
		f()
		*acc += time.Since(t0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			timed(arch, &ta)
			timed(portable, &tg)
		} else {
			timed(portable, &tg)
			timed(arch, &ta)
		}
	}
	b.ReportMetric(float64(ta.Nanoseconds())/float64(b.N*P), "ns/plane")
	b.ReportMetric(float64(ta)/float64(tg), "asm/go")
}
