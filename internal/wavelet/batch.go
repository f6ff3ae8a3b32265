package wavelet

// Batched (structure-of-arrays) orthogonal DWT kernels. The CS solver
// reconstructs many windows per engine dispatch; the per-window
// transforms are identical pyramids over different data, so the batch
// variants run one level loop over K coefficient planes laid out as
// contiguous stride-long stripes of a single backing slice. The win is
// instruction-level parallelism: the scalar kernels carry an 8-tap
// floating-point accumulation chain per output sample (latency-bound on
// one window), while the 4-lane tiles below keep eight independent
// accumulators live per tap loop (throughput-bound across windows). A
// short last tile of padFrom or more planes (every three-lead window)
// runs padded through the same tile body.
//
// Each tile level splits in two. The interior — the leading outputs
// whose tap window needs no periodic wrap, nearly all of them — runs
// through an interiorFunc: on amd64 the SSE2 assembly of tile_amd64.s,
// which packs two lanes per register, elsewhere the Go loops
// analyzeInteriorGo/synthesizeInteriorGo. The few wrapped outputs at
// the end of each level then run in Go, so per element the scatter
// order is unchanged.
//
// Bit-identity contract: for every plane, the sequence of floating-point
// operations — tap order, accumulation order, scatter order — is exactly
// the sequence ForwardInto/InverseInto perform on that plane alone, so a
// batched transform of K planes is bit-identical to K scalar transforms
// at every K (not just K=1), for every non-NaN value. A NaN result stays
// NaN, but its payload may differ: which operand's payload an add
// propagates depends on register choice. Tests in batch_test.go and
// tile_test.go pin this.

// BatchScratch holds the ping-pong work buffers of the batch transform
// variants. A zero BatchScratch is ready to use; buffers grow on demand
// and are reused across calls. Not safe for concurrent transforms.
type BatchScratch struct {
	a, b []float64
	// pad backs a short tile's missing lanes: they read its first half,
	// never written so zero, and write its second half, never read back.
	pad []float64
}

// padFrom is the narrowest short last tile run padded through the 4-lane
// body; one or two leftover planes run the scalar kernels, which measured
// faster than a padded tile for them (EXPERIMENTS.md).
const padFrom = 3

// buffers returns two independent length-size work slices and the
// padding buffer for stride-long planes, growing them when needed.
func (s *BatchScratch) buffers(size, stride int) ([]float64, []float64, []float64) {
	if cap(s.a) < size {
		s.a = make([]float64, size)
	}
	if cap(s.b) < size {
		s.b = make([]float64, size)
	}
	if len(s.pad) < 2*stride {
		s.pad = make([]float64, 2*stride)
	}
	return s.a[:size], s.b[:size], s.pad
}

// checkBatch validates the shared batch-transform geometry: stripes of
// length stride packed in x and out, every listed plane in range.
func checkBatch(xLen, outLen, stride, levels int, planes []int) error {
	if levels < 1 {
		return ErrLevels
	}
	if stride <= 0 || stride%(1<<uint(levels)) != 0 {
		return ErrLength
	}
	if xLen != outLen || xLen%stride != 0 {
		return ErrLength
	}
	p := xLen / stride
	for _, pl := range planes {
		if pl < 0 || pl >= p {
			return ErrLength
		}
	}
	return nil
}

// ForwardBatchInto computes the 'levels'-deep periodic DWT of every
// listed plane of x (a structure-of-arrays buffer of stride-long
// stripes; plane p occupies x[p*stride:(p+1)*stride]) into the matching
// stripes of out. Stripes of planes not listed are left untouched.
// Per-plane output is bit-identical to ForwardInto on that stripe.
func (w *Orthogonal) ForwardBatchInto(x []float64, stride, levels int, planes []int, out []float64, s *BatchScratch) error {
	return w.forwardBatch(x, stride, levels, planes, out, s, analyzeInterior)
}

// interiorFunc runs a tile's no-wrap interior, outputs [0, ni) of all
// four lanes, taking the tile's lanes in its argument order: (x, a, d)
// to analyze, (a, d, x) to synthesize. analyzeInterior and
// synthesizeInterior are this build's (assembly on amd64);
// analyzeInteriorGo and synthesizeInteriorGo are the portable Go ones.
type interiorFunc func(w *Orthogonal, u, v, z [4][]float64, ni int)

// forwardBatch is ForwardBatchInto with the tile interior as a
// parameter, so benchmarks can time the Go interior on amd64 too.
func (w *Orthogonal) forwardBatch(x []float64, stride, levels int, planes []int, out []float64, s *BatchScratch, interior interiorFunc) error {
	if err := checkBatch(len(x), len(out), stride, levels, planes); err != nil {
		return err
	}
	cur, next, pad := s.buffers(len(x), stride)
	for _, p := range planes {
		copy(cur[p*stride:(p+1)*stride], x[p*stride:(p+1)*stride])
	}
	pos := stride
	curLen := stride
	for lev := 0; lev < levels; lev++ {
		half := curLen / 2
		w.analyzeBatch(cur, next, out, stride, curLen, pos, planes, pad, interior)
		pos -= half
		curLen = half
		cur, next = next, cur
	}
	for _, p := range planes {
		copy(out[p*stride:p*stride+curLen], cur[p*stride:p*stride+curLen])
	}
	return nil
}

// analyzeBatch performs one decimating analysis step on every listed
// plane: approximation into next[base:base+curLen/2], detail into
// out[base+pos-curLen/2 : base+pos] (base = plane*stride), in tiles of
// four planes. A short last tile of padFrom or more planes fills its
// missing lanes from pad; a shorter tail runs analyzeOne per plane.
func (w *Orthogonal) analyzeBatch(cur, next, out []float64, stride, curLen, pos int, planes []int, pad []float64, interior interiorFunc) {
	half := curLen / 2
	zero, sink := pad[:len(pad)/2], pad[len(pad)/2:]
	t := 0
	for ; t+padFrom <= len(planes); t += 4 {
		var x, a, d [4][]float64
		for l := range x {
			if t+l < len(planes) {
				b := planes[t+l] * stride
				x[l], a[l], d[l] = cur[b:b+curLen], next[b:b+half], out[b+pos-half:b+pos]
			} else {
				x[l], a[l], d[l] = zero[:curLen], sink[:half], sink[:half]
			}
		}
		w.analyzeTile(x, a, d, interior)
	}
	for ; t < len(planes); t++ {
		b := planes[t] * stride
		w.analyzeOne(cur[b:b+curLen], next[b:b+half], out[b+pos-half:b+pos])
	}
}

// interiorCount returns how many leading outputs of one step over an
// n-sample signal touch an L-tap window with no periodic wrap: the i
// with 2i+L <= n. They come first, so running them before the wrapped
// rest keeps the per-element operation order.
func interiorCount(n, L int) int {
	if n < L {
		return 0
	}
	return (n-L)/2 + 1
}

// analyzeTile runs one analysis step on four lanes: the no-wrap interior
// through interior, then the periodic-wrap outputs with eight register
// accumulators; per lane the accumulation order matches analyzeOne.
func (w *Orthogonal) analyzeTile(x, a, d [4][]float64, interior interiorFunc) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	d0, d1, d2, d3 := d[0], d[1], d[2], d[3]
	curLen, half := len(x0), len(a0)
	h := w.h
	g := w.gf
	L := len(h)
	ni := interiorCount(curLen, L)
	interior(w, x, a, d, ni)
	for i := ni; i < half; i++ {
		var sa0, sd0, sa1, sd1, sa2, sd2, sa3, sd3 float64
		base := 2 * i
		for k := 0; k < L; k++ {
			j := base + k
			for j >= curLen {
				j -= curLen
			}
			hk, gk := h[k], g[k]
			v0 := x0[j]
			sa0 += hk * v0
			sd0 += gk * v0
			v1 := x1[j]
			sa1 += hk * v1
			sd1 += gk * v1
			v2 := x2[j]
			sa2 += hk * v2
			sd2 += gk * v2
			v3 := x3[j]
			sa3 += hk * v3
			sd3 += gk * v3
		}
		a0[i], d0[i] = sa0, sd0
		a1[i], d1[i] = sa1, sd1
		a2[i], d2[i] = sa2, sd2
		a3[i], d3[i] = sa3, sd3
	}
}

// analyzeInteriorGo is analyzeTile's interior in Go: eight register
// accumulators over plain subslice tap windows, so the bounds checks
// vanish. Builds without an assembly interior run it; on amd64 it is
// the tests' oracle for the assembly.
func analyzeInteriorGo(w *Orthogonal, x, a, d [4][]float64, ni int) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	d0, d1, d2, d3 := d[0], d[1], d[2], d[3]
	h := w.h
	L := len(h)
	gb := w.gf[:L]
	for i := 0; i < ni; i++ {
		var sa0, sd0, sa1, sd1, sa2, sd2, sa3, sd3 float64
		base := 2 * i
		xs0 := x0[base : base+L]
		xs1 := x1[base : base+L]
		xs2 := x2[base : base+L]
		xs3 := x3[base : base+L]
		for k, hk := range h {
			gk := gb[k]
			v0 := xs0[k]
			sa0 += hk * v0
			sd0 += gk * v0
			v1 := xs1[k]
			sa1 += hk * v1
			sd1 += gk * v1
			v2 := xs2[k]
			sa2 += hk * v2
			sd2 += gk * v2
			v3 := xs3[k]
			sa3 += hk * v3
			sd3 += gk * v3
		}
		a0[i], d0[i] = sa0, sd0
		a1[i], d1[i] = sa1, sd1
		a2[i], d2[i] = sa2, sd2
		a3[i], d3[i] = sa3, sd3
	}
}

// InverseBatchInto reconstructs every listed plane of the
// structure-of-arrays coefficient buffer c into the matching stripes of
// out. Per-plane output is bit-identical to InverseInto on that stripe.
func (w *Orthogonal) InverseBatchInto(c []float64, stride, levels int, planes []int, out []float64, s *BatchScratch) error {
	return w.inverseBatch(c, stride, levels, planes, out, s, synthesizeInterior)
}

// inverseBatch is InverseBatchInto with the tile interior as a
// parameter, as forwardBatch.
func (w *Orthogonal) inverseBatch(c []float64, stride, levels int, planes []int, out []float64, s *BatchScratch, interior interiorFunc) error {
	if err := checkBatch(len(c), len(out), stride, levels, planes); err != nil {
		return err
	}
	alen := stride >> uint(levels)
	cur, next, pad := s.buffers(len(c), stride)
	for _, p := range planes {
		copy(cur[p*stride:p*stride+alen], c[p*stride:p*stride+alen])
	}
	pos := alen
	curLen := alen
	for lev := levels; lev >= 1; lev-- {
		w.synthesizeBatch(cur, c, next, out, stride, curLen, pos, lev == 1, planes, pad, interior)
		pos += curLen
		curLen *= 2
		cur, next = next, cur
	}
	return nil
}

// synthesizeBatch inverts one analysis step on every listed plane:
// approximation from cur[base:base+curLen], detail from
// c[base+pos:base+pos+curLen], signal into next (or out when final is
// set). Planes run in tiles of four as in analyzeBatch.
func (w *Orthogonal) synthesizeBatch(cur, c, next, out []float64, stride, curLen, pos int, final bool, planes []int, pad []float64, interior interiorFunc) {
	n := 2 * curLen
	zero, sink := pad[:len(pad)/2], pad[len(pad)/2:]
	dstBuf := next
	if final {
		dstBuf = out
	}
	t := 0
	for ; t+padFrom <= len(planes); t += 4 {
		var a, d, x [4][]float64
		for l := range x {
			if t+l < len(planes) {
				b := planes[t+l] * stride
				a[l], d[l], x[l] = cur[b:b+curLen], c[b+pos:b+pos+curLen], dstBuf[b:b+n]
			} else {
				a[l], d[l], x[l] = zero[:curLen], zero[:curLen], sink[:n]
			}
		}
		w.synthesizeTile(a, d, x, interior)
	}
	for ; t < len(planes); t++ {
		b := planes[t] * stride
		w.synthesizeOne(cur[b:b+curLen], c[b+pos:b+pos+curLen], dstBuf[b:b+n])
	}
}

// synthesizeTile inverts one analysis step on four lanes: the no-wrap
// interior through interior, then the periodic-wrap inputs; per lane the
// scatter order matches synthesizeOne.
func (w *Orthogonal) synthesizeTile(a, d, x [4][]float64, interior interiorFunc) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	d0, d1, d2, d3 := d[0], d[1], d[2], d[3]
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	curLen, n := len(a0), len(x0)
	h := w.h
	g := w.gf
	L := len(h)
	clear(x0)
	clear(x1)
	clear(x2)
	clear(x3)
	ni := interiorCount(n, L)
	interior(w, a, d, x, ni)
	for i := ni; i < curLen; i++ {
		base := 2 * i
		av0, dv0 := a0[i], d0[i]
		av1, dv1 := a1[i], d1[i]
		av2, dv2 := a2[i], d2[i]
		av3, dv3 := a3[i], d3[i]
		for k := 0; k < L; k++ {
			j := base + k
			for j >= n {
				j -= n
			}
			hk, gk := h[k], g[k]
			x0[j] += hk*av0 + gk*dv0
			x1[j] += hk*av1 + gk*dv1
			x2[j] += hk*av2 + gk*dv2
			x3[j] += hk*av3 + gk*dv3
		}
	}
}

// synthesizeInteriorGo is synthesizeTile's interior in Go over plain
// subslice scatter windows, as analyzeInteriorGo.
func synthesizeInteriorGo(w *Orthogonal, a, d, x [4][]float64, ni int) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	d0, d1, d2, d3 := d[0], d[1], d[2], d[3]
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	h := w.h
	L := len(h)
	gb := w.gf[:L]
	for i := 0; i < ni; i++ {
		base := 2 * i
		av0, dv0 := a0[i], d0[i]
		av1, dv1 := a1[i], d1[i]
		av2, dv2 := a2[i], d2[i]
		av3, dv3 := a3[i], d3[i]
		xw0 := x0[base : base+L]
		xw1 := x1[base : base+L]
		xw2 := x2[base : base+L]
		xw3 := x3[base : base+L]
		for k, hk := range h {
			gk := gb[k]
			xw0[k] += hk*av0 + gk*dv0
			xw1[k] += hk*av1 + gk*dv1
			xw2[k] += hk*av2 + gk*dv2
			xw3[k] += hk*av3 + gk*dv3
		}
	}
}
