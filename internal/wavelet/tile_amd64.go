package wavelet

// The tile interiors in tile_amd64.s pack lanes 0/1 and 2/3 into one
// SSE2 register each, so a tap costs 4 MULPD + 4 ADDPD where the Go
// interior spends 8 MULSD + 8 ADDSD. Per lane the instruction sequence
// is the Go one's — accumulators start at +0, each tap multiplies and
// then adds, no FMA — and SSE2 rounds each packed lane exactly as the
// scalar instruction, so the outputs are bit-identical to
// analyzeInteriorGo / synthesizeInteriorGo for every non-NaN value.
// SSE2 is part of baseline amd64, so there is no CPU dispatch.

// analyzeInteriorSSE2 writes outputs [0, ni) of a[l] and d[l] from the
// L-tap windows of x[l], l = 0..3, with tab the duplicated tap table.
//
//go:noescape
func analyzeInteriorSSE2(tab []float64, x, a, d *[4][]float64, ni int)

// synthesizeInteriorSSE2 scatter-adds inputs [0, ni) of a[l] and d[l]
// into the L-tap windows of x[l], l = 0..3.
//
//go:noescape
func synthesizeInteriorSSE2(tab []float64, a, d, x *[4][]float64, ni int)

// analyzeInterior runs analyzeTile's interior in assembly after checking
// every lane spans the windows it reads and writes.
func analyzeInterior(w *Orthogonal, x, a, d [4][]float64, ni int) {
	if ni == 0 {
		return
	}
	checkInterior(len(w.h), ni, &x, &a, &d)
	analyzeInteriorSSE2(w.tab, &x, &a, &d, ni)
}

// synthesizeInterior runs synthesizeTile's interior in assembly after
// the same lane check.
func synthesizeInterior(w *Orthogonal, a, d, x [4][]float64, ni int) {
	if ni == 0 {
		return
	}
	checkInterior(len(w.h), ni, &x, &a, &d)
	synthesizeInteriorSSE2(w.tab, &a, &d, &x, ni)
}

// checkInterior panics with an index error unless every signal lane
// holds the last interior tap window, 2(ni-1)+L samples, and every
// coefficient lane ni values, so the unchecked assembly stays in bounds.
func checkInterior(L, ni int, x, a, d *[4][]float64) {
	for l := range x {
		_, _, _ = x[l][2*ni+L-3], a[l][ni-1], d[l][ni-1]
	}
}
