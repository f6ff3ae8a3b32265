package cs

// Batched (structure-of-arrays) sensing-matrix kernels. The batched
// FISTA solver applies one Φ to K windows per iteration; walking the CSR
// companion once per plane would reload the index stream K times, so the
// batch kernels walk it once and tile four planes per sweep — the index
// loads amortise over the tile and the four accumulators give the FP
// units independent dependency chains. A short last tile of padFrom or
// more planes (every three-lead window) runs padded (tileLanes); one or
// two leftover planes run the scalar kernels, which measured faster than
// a padded tile for them (EXPERIMENTS.md).
//
// Bit-identity contract: per plane the accumulation order equals the
// scalar Apply/ApplyT kernels exactly. ApplyT's zero-residual row skip
// is dropped in the batch kernel — adding ±0.0 into accumulators that
// start at +0.0 can never change a bit, so the unconditional walk is
// bitwise identical (TestBatchKernelsMatchScalar pins this).

// batchApplier is implemented by sensing matrices that can apply
// themselves across a structure-of-arrays plane set in one sweep. x/z
// buffers hold n-long stripes, y/r buffers m-long stripes; planes lists
// the stripe indices to process; pad is batchScratch.pad.
type batchApplier interface {
	applyBatch(x []float64, n int, y []float64, m int, planes []int, pad []float64)
	applyTBatch(r []float64, m int, z []float64, n int, planes []int, pad []float64)
}

// padFrom is the narrowest short last tile run padded through the tile
// body, the same cut as the wavelet kernels'.
const padFrom = 3

// tileLanes returns the in/out stripes of the tile at planes[0]. Lanes
// past the end of planes read pad's first half (never written, so zero)
// and write its second half (never read back).
func tileLanes(in []float64, inLen int, out []float64, outLen int, planes []int, pad []float64) (ins, outs [4][]float64) {
	zero, sink := pad[:len(pad)/2], pad[len(pad)/2:]
	for l := range ins {
		if l < len(planes) {
			p := planes[l]
			ins[l], outs[l] = in[p*inLen:p*inLen+inLen], out[p*outLen:p*outLen+outLen]
		} else {
			ins[l], outs[l] = zero[:inLen], sink[:outLen]
		}
	}
	return ins, outs
}

// applyBatch computes y_p = Φx_p for every listed plane, walking the CSR
// row lists once per 4-plane tile.
func (s *SparseBinary) applyBatch(x []float64, n int, y []float64, m int, planes []int, pad []float64) {
	t := 0
	for ; t+padFrom <= len(planes); t += 4 {
		s.applyTile(tileLanes(x, n, y, m, planes[t:], pad))
	}
	for ; t < len(planes); t++ {
		p := planes[t]
		s.Apply(x[p*n:p*n+n], y[p*m:p*m+m])
	}
}

// applyTile computes y = Φx on the four lanes of one tile.
func (s *SparseBinary) applyTile(x, y [4][]float64) {
	rowPtr, rowCols, scale := s.rowPtr, s.rowCols, s.scale
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	for i := 0; i < s.m; i++ {
		var a0, a1, a2, a3 float64
		for _, c := range rowCols[rowPtr[i]:rowPtr[i+1]] {
			a0 += x0[c]
			a1 += x1[c]
			a2 += x2[c]
			a3 += x3[c]
		}
		y0[i] = a0 * scale
		y1[i] = a1 * scale
		y2[i] = a2 * scale
		y3[i] = a3 * scale
	}
}

// applyTBatch computes z_p = Φᵀr_p for every listed plane. The residual
// elements of the tile are loaded once per row and scattered into four
// stripes; per plane the per-z[c] accumulation order matches ApplyT.
func (s *SparseBinary) applyTBatch(r []float64, m int, z []float64, n int, planes []int, pad []float64) {
	t := 0
	for ; t+padFrom <= len(planes); t += 4 {
		s.applyTTile(tileLanes(r, m, z, n, planes[t:], pad))
	}
	for ; t < len(planes); t++ {
		p := planes[t]
		s.ApplyT(r[p*m:p*m+m], z[p*n:p*n+n])
	}
}

// applyTTile computes z = Φᵀr on the four lanes of one tile.
func (s *SparseBinary) applyTTile(r, z [4][]float64) {
	rowPtr, rowCols, scale := s.rowPtr, s.rowCols, s.scale
	r0, r1, r2, r3 := r[0], r[1], r[2], r[3]
	z0, z1, z2, z3 := z[0], z[1], z[2], z[3]
	clear(z0)
	clear(z1)
	clear(z2)
	clear(z3)
	for i := 0; i < s.m; i++ {
		v0, v1, v2, v3 := r0[i], r1[i], r2[i], r3[i]
		for _, c := range rowCols[rowPtr[i]:rowPtr[i+1]] {
			z0[c] += v0
			z1[c] += v1
			z2[c] += v2
			z3[c] += v3
		}
	}
	for c := range z0 {
		z0[c] *= scale
		z1[c] *= scale
		z2[c] *= scale
		z3[c] *= scale
	}
}
