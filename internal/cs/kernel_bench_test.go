package cs

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wbsn/internal/wavelet"
)

// BenchmarkApplyTCSR pairs the row-major CSR kernels against the
// column-major reference at the paper's single-lead operating point
// (512-sample window, CR 65.9, d = 4). ApplyT runs twice per FISTA
// iteration — it is the innermost loop of the whole gateway — so this
// pair is the evidence for the kernel-layout choice.
func BenchmarkApplyTCSR(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	m := MeasurementsForCR(512, 65.9)
	sb, err := NewSparseBinary(m, 512, 4, rng)
	if err != nil {
		b.Fatal(err)
	}
	r := make([]float64, m)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	z := make([]float64, 512)
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sb.ApplyT(r, z)
		}
	})
	b.Run("colmajor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sb.applyTColMajor(r, z)
		}
	})
}

// BenchmarkApplyCSR is the forward-kernel companion pair: the CSR
// Apply reduces each row into a register with one sequential store,
// the column-major reference scatter-adds with a zeroing prologue.
func BenchmarkApplyCSR(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	m := MeasurementsForCR(512, 65.9)
	sb, err := NewSparseBinary(m, 512, 4, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 512)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, m)
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sb.Apply(x, y)
		}
	})
	b.Run("colmajor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sb.applyColMajor(x, y)
		}
	})
}

// BenchmarkSoAKernels times one batched gradient's kernel chain —
// synthesize → Φ → Φᵀ → analyze — over P planes at the solver geometry
// (512-sample window, 5-level db8, CR 60, d = 4) and reports ns/plane.
// Each iteration also runs the same chain plane by plane through the
// single-vector kernels, alternating which goes first, and batch/scalar
// is the ratio of the two times: host speed drifts by up to 2x over
// seconds here, and the interleaved ratio cancels it. ns/op covers both
// chains.
func BenchmarkSoAKernels(b *testing.B) {
	const n = 512
	const levels = 5
	m := MeasurementsForCR(n, 60)
	phi, err := NewSparseBinary(m, n, 4, rand.New(rand.NewSource(19)))
	if err != nil {
		b.Fatal(err)
	}
	w := wavelet.Daubechies8()
	rng := rand.New(rand.NewSource(20))
	for P := 1; P <= 8; P++ {
		b.Run(fmt.Sprintf("planes=%d", P), func(b *testing.B) {
			var bs batchScratch
			bs.ensure(P, 1, n, m, 1, 1)
			theta := make([]float64, P*n)
			for i := range theta {
				theta[i] = rng.NormFloat64()
			}
			x := make([]float64, P*n)
			ax := make([]float64, P*m)
			z := make([]float64, P*n)
			grad := make([]float64, P*n)
			planes := make([]int, P)
			for p := range planes {
				planes[p] = p
			}
			batch := func() {
				if err := w.InverseBatchInto(theta, n, levels, planes, x, &bs.ws); err != nil {
					b.Fatal(err)
				}
				phi.applyBatch(x, n, ax, m, planes, bs.pad)
				phi.applyTBatch(ax, m, z, n, planes, bs.pad)
				if err := w.ForwardBatchInto(z, n, levels, planes, grad, &bs.ws); err != nil {
					b.Fatal(err)
				}
			}
			scalar := func() {
				for p := 0; p < P; p++ {
					xs, zs, axs := nStripe(x, p, n), nStripe(z, p, n), ax[p*m:p*m+m]
					if err := w.InverseInto(nStripe(theta, p, n), levels, xs, &bs.sws); err != nil {
						b.Fatal(err)
					}
					phi.Apply(xs, axs)
					phi.ApplyT(axs, zs)
					if err := w.ForwardInto(zs, levels, nStripe(grad, p, n), &bs.sws); err != nil {
						b.Fatal(err)
					}
				}
			}
			batch() // warm the scratch
			scalar()
			var tb, ts time.Duration
			timed := func(f func(), acc *time.Duration) {
				t0 := time.Now()
				f()
				*acc += time.Since(t0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					timed(batch, &tb)
					timed(scalar, &ts)
				} else {
					timed(scalar, &ts)
					timed(batch, &tb)
				}
			}
			b.ReportMetric(float64(tb.Nanoseconds())/float64(b.N*P), "ns/plane")
			b.ReportMetric(float64(tb)/float64(ts), "batch/scalar")
		})
	}
}
