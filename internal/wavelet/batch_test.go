package wavelet

import (
	"math"
	"math/rand"
	"testing"
)

// TestBatchMatchesScalar pins the bit-identity contract: every plane of
// a batched forward/inverse transform must equal the scalar transform
// of that stripe alone, for plane counts covering the 4-wide tile and
// every padded short-tile width, alone (P=1..3) and after full tiles,
// at a generic geometry, at the CS solver's (n=512, 5 levels, db8) and
// at depths whose levels reach 2 samples, shorter than the filter and
// with no tile interior (Haar excepted).
func TestBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, geo := range []struct {
		n, levels int
		ws        []*Orthogonal
	}{
		{256, 4, []*Orthogonal{Haar(), Daubechies4(), Daubechies8(), Symlet8()}},
		{512, 5, []*Orthogonal{Daubechies8()}},
		{16, 3, []*Orthogonal{Haar(), Daubechies4(), Daubechies8(), Symlet8()}},
		{512, 8, []*Orthogonal{Haar(), Daubechies8()}},
	} {
		n, levels := geo.n, geo.levels
		for _, w := range geo.ws {
			for _, P := range []int{1, 2, 3, 4, 5, 6, 7, 8, 11} {
				x := make([]float64, P*n)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				planes := make([]int, P)
				for p := range planes {
					planes[p] = p
				}
				var s BatchScratch
				fwd := make([]float64, P*n)
				if err := w.ForwardBatchInto(x, n, levels, planes, fwd, &s); err != nil {
					t.Fatalf("%s n=%d P=%d: ForwardBatchInto: %v", w.Name(), n, P, err)
				}
				inv := make([]float64, P*n)
				if err := w.InverseBatchInto(fwd, n, levels, planes, inv, &s); err != nil {
					t.Fatalf("%s n=%d P=%d: InverseBatchInto: %v", w.Name(), n, P, err)
				}
				for p := 0; p < P; p++ {
					stripe := x[p*n : (p+1)*n]
					ref, err := w.Forward(stripe, levels)
					if err != nil {
						t.Fatalf("Forward: %v", err)
					}
					for i, v := range ref {
						if got := fwd[p*n+i]; got != v {
							t.Fatalf("%s n=%d P=%d plane %d: forward[%d] = %v, scalar %v", w.Name(), n, P, p, i, got, v)
						}
					}
					refInv, err := w.Inverse(ref, levels)
					if err != nil {
						t.Fatalf("Inverse: %v", err)
					}
					for i, v := range refInv {
						if got := inv[p*n+i]; got != v {
							t.Fatalf("%s n=%d P=%d plane %d: inverse[%d] = %v, scalar %v", w.Name(), n, P, p, i, got, v)
						}
					}
				}
			}
		}
	}
}

// TestBatchSparsePlanes checks that only listed planes are transformed,
// forward and inverse, and the other stripes stay untouched — with
// full and padded short tiles, so a padding lane that wrote into a real
// stripe would fail it — and that the padding read stripe stays zero.
func TestBatchSparsePlanes(t *testing.T) {
	const n = 128
	const levels = 3
	const P = 7
	w := Daubechies8()
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, P*n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	var s BatchScratch
	for _, planes := range [][]int{{3}, {1, 6}, {0, 2, 5}, {0, 2, 5, 6}, {0, 1, 3, 4, 6}} {
		listed := map[int]bool{}
		for _, p := range planes {
			listed[p] = true
		}
		fwd := make([]float64, P*n)
		inv := make([]float64, P*n)
		for i := range fwd {
			fwd[i], inv[i] = -99, -99
		}
		if err := w.ForwardBatchInto(x, n, levels, planes, fwd, &s); err != nil {
			t.Fatalf("%v: ForwardBatchInto: %v", planes, err)
		}
		if err := w.InverseBatchInto(fwd, n, levels, planes, inv, &s); err != nil {
			t.Fatalf("%v: InverseBatchInto: %v", planes, err)
		}
		for p := 0; p < P; p++ {
			if !listed[p] {
				for i := 0; i < n; i++ {
					if fwd[p*n+i] != -99 || inv[p*n+i] != -99 {
						t.Fatalf("%v: inactive plane %d written at %d", planes, p, i)
					}
				}
				continue
			}
			ref, _ := w.Forward(x[p*n:(p+1)*n], levels)
			refInv, _ := w.Inverse(ref, levels)
			for i := range ref {
				if fwd[p*n+i] != ref[i] || inv[p*n+i] != refInv[i] {
					t.Fatalf("%v: active plane %d mismatch at %d", planes, p, i)
				}
			}
		}
		for i, v := range s.pad[:len(s.pad)/2] {
			if v != 0 || math.Signbit(v) {
				t.Fatalf("%v: padding read stripe [%d] = %v, want +0", planes, i, v)
			}
		}
	}
}

// TestBatchValidation covers the error paths.
func TestBatchValidation(t *testing.T) {
	w := Daubechies8()
	var s BatchScratch
	x := make([]float64, 128)
	out := make([]float64, 128)
	if err := w.ForwardBatchInto(x, 128, 0, []int{0}, out, &s); err != ErrLevels {
		t.Fatalf("levels=0: got %v", err)
	}
	if err := w.ForwardBatchInto(x, 100, 2, []int{0}, out, &s); err != ErrLength {
		t.Fatalf("odd stride: got %v", err)
	}
	if err := w.ForwardBatchInto(x, 64, 2, []int{2}, out, &s); err != ErrLength {
		t.Fatalf("plane out of range: got %v", err)
	}
	if err := w.InverseBatchInto(x, 64, 2, []int{0}, out[:64], &s); err != ErrLength {
		t.Fatalf("len mismatch: got %v", err)
	}
}
